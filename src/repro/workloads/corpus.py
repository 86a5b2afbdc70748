"""MiniC++ source corpus: the paper's listings as analyzable programs.

Each entry is a :class:`CorpusProgram` — source text, the vulnerability
classes the paper attributes to it, and whether classic (non-placement)
scanners should flag anything.  The corpus drives experiment E13 (tool
coverage) and the analyzer's test suite.
"""

from __future__ import annotations

from .._record import record


@record(frozen=True)
class CorpusProgram:
    """One analyzable program and its ground-truth labels."""

    key: str
    paper_ref: str
    source: str
    expected_rules: tuple  # analyzer rule ids expected to fire
    classic_vulnerable: bool = False  # should legacy scanners flag it?


_CLASSES = """
class Student {
  public:
    Student();
    Student(double g, int y, int s);
    double gpa;
    int year, semester;
};
class GradStudent : public Student {
  public:
    GradStudent();
    GradStudent(double g, int y, int s);
    int ssn[3];
};
"""

_VIRTUAL_CLASSES = """
class Student {
  public:
    Student();
    virtual char* getInfo();
    double gpa;
    int year, semester;
};
class GradStudent : public Student {
  public:
    GradStudent();
    virtual char* getInfo();
    int ssn[3];
};
"""

LISTING_4 = CorpusProgram(
    key="listing4-construction",
    paper_ref="§3.1, Listing 4",
    source=_CLASSES
    + """
void addStudent(double gpa) {
  Student stud;
  GradStudent *st = new (&stud) GradStudent(gpa, 2009, 1);
}
""",
    expected_rules=("PN-OVERSIZE",),
)

LISTING_5 = CorpusProgram(
    key="listing5-remote-names",
    paper_ref="§3.2, Listing 5",
    source="""
class string { public: string(); int length; };
string *st;
void receiveNames(int n) {
  string *stnames = new (st) string[n];
}
""",
    expected_rules=("PN-TAINTED-COUNT",),
)

LISTING_6 = CorpusProgram(
    key="listing6-remote-copy",
    paper_ref="§3.2, Listing 6",
    source=_CLASSES
    + """
class Remote { public: int n; int courseid[2]; };
Student stud;
void addStudent(Remote *remoteobj) {
  GradStudent *st = new (&stud) GradStudent(1.0, 2009, 1);
  int i = -1;
  while (++i < remoteobj->n) {
    st->ssn[i] = remoteobj->courseid[i];
  }
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-COPY-LOOP"),
)

LISTING_7 = CorpusProgram(
    key="listing7-copy-constructor",
    paper_ref="§3.2, Listing 7",
    source=_CLASSES
    + """
Student stud;
void addStudent(Student *remoteobj) {
  GradStudent *st = new (&stud) GradStudent(remoteobj->gpa, 2009, 1);
}
""",
    expected_rules=("PN-OVERSIZE",),
)

LISTING_10 = CorpusProgram(
    key="listing10-internal",
    paper_ref="§3.4, Listing 10",
    source=_CLASSES
    + """
class MobilePlayer {
  public:
    Student stud1, stud2;
    int n;
    void addStudentPlayer(Student *stptr) {
      GradStudent *st = new (&stud1) GradStudent(2.0, 2010, 1);
      ++n;
    }
};
""",
    expected_rules=("PN-OVERSIZE",),
)

LISTING_11 = CorpusProgram(
    key="listing11-data-bss",
    paper_ref="§3.5, Listing 11",
    source=_CLASSES
    + """
Student stud1, stud2;
bool addStudent(bool isGradStudent) {
  GradStudent *st;
  if (isGradStudent) {
    st = new (&stud1) GradStudent(4.0, 2009, 1);
    cin >> st->ssn[0] >> st->ssn[1] >> st->ssn[2];
  } else {
    Student *s2 = new (&stud2) Student(3.0, 2009, 1);
  }
  return true;
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD"),
)

LISTING_12 = CorpusProgram(
    key="listing12-heap",
    paper_ref="§3.5.1, Listing 12",
    source=_CLASSES
    + """
Student *stud;
char *name;
int main(int argc, char **argv) {
  stud = new Student();
  GradStudent *st = new (stud) GradStudent();
  name = new char[16];
  strncpy(name, "abcdefghijklmno", 16);
  cin >> st->ssn[0];
  cin >> st->ssn[1];
  cin >> st->ssn[2];
  return 0;
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD"),
)

LISTING_13 = CorpusProgram(
    key="listing13-stack-return",
    paper_ref="§3.6.1, Listing 13",
    source=_CLASSES
    + """
void addStudent(bool isGradStudent) {
  Student stud;
  if (isGradStudent) {
    GradStudent *gs = new (&stud) GradStudent();
    int i = -1;
    int dssn = 0;
    while (++i < 3) {
      cin >> dssn;
      if (dssn > 0) {
        gs->ssn[i] = dssn;
      }
    }
  }
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD"),
)

LISTING_15 = CorpusProgram(
    key="listing15-local-variable",
    paper_ref="§3.7.2, Listing 15",
    source=_CLASSES
    + """
void addStudent(bool isGradStudent) {
  int n = 5;
  Student stud;
  if (isGradStudent) {
    GradStudent *gs = new (&stud) GradStudent();
    cin >> gs->ssn[1];
  }
  for (int i = 0; i < n; ++i) {
    processOne(i);
  }
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD"),
)

LISTING_17 = CorpusProgram(
    key="listing17-function-pointer",
    paper_ref="§3.9, Listing 17",
    source=_CLASSES
    + """
void addStudent(bool isGradStudent) {
  int createStudentAccount = 0;
  Student stud;
  if (isGradStudent) {
    GradStudent *gs = new (&stud) GradStudent();
    cin >> gs->ssn[1];
  }
  if (createStudentAccount != 0) {
    invokeAccount(createStudentAccount);
  }
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD"),
)

LISTING_19 = CorpusProgram(
    key="listing19-two-step-stack",
    paper_ref="§4.1, Listing 19",
    source=_CLASSES
    + """
bool sortAndAddUname(char *uname, bool isGrad, int n_students) {
  char mem_pool[64];
  int n_unames = 0;
  Student stud;
  cin >> n_unames;
  if (n_unames > n_students) {
    return false;
  }
  if (isGrad) {
    GradStudent *st = new (&stud) GradStudent();
    cin >> st->ssn[0] >> st->ssn[1] >> st->ssn[2];
  }
  char *buf = new (mem_pool) char[n_unames * 8];
  strncpy(buf, uname, n_unames * 8);
  return true;
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD", "PN-TAINTED-COUNT"),
)

LISTING_21 = CorpusProgram(
    key="listing21-info-leak-array",
    paper_ref="§4.3, Listing 21",
    source="""
char mem_pool[256];
char *userdata;
int main(int argc, char **argv) {
  readFile("/etc/passwd", mem_pool, 256);
  userdata = new (mem_pool) char[256];
  store(userdata);
  return 0;
}
""",
    expected_rules=("PN-NO-SANITIZE",),
)

LISTING_22 = CorpusProgram(
    key="listing22-info-leak-object",
    paper_ref="§4.3, Listing 22",
    source=_CLASSES
    + """
GradStudent *gst;
int main(int argc, char **argv) {
  gst = new GradStudent();
  Student *st = new (gst) Student();
  store(st);
  return 0;
}
""",
    expected_rules=("PN-NO-SANITIZE",),
)

LISTING_23 = CorpusProgram(
    key="listing23-memory-leak",
    paper_ref="§4.5, Listing 23",
    source=_CLASSES
    + """
void addStudents(int n_students) {
  for (int i = 0; i < n_students; i = i + 2) {
    GradStudent *stud = new GradStudent();
    Student *st = new (stud) Student();
    delete st;
    stud = NULL;
  }
}
""",
    expected_rules=("PN-LEAK",),
)

VTABLE_VARIANT = CorpusProgram(
    key="vtable-subterfuge",
    paper_ref="§3.8.2",
    source=_VIRTUAL_CLASSES
    + """
Student stud1, stud2;
void addStudent() {
  GradStudent *st = new (&stud1) GradStudent();
  cin >> st->ssn[0];
}
""",
    expected_rules=("PN-OVERSIZE", "PN-TAINTED-FIELD", "PN-VPTR-RISK"),
)

SAFE_PLACEMENT = CorpusProgram(
    key="safe-placement",
    paper_ref="(control: correct code)",
    source=_CLASSES
    + """
void recycle() {
  GradStudent big;
  Student *st = new (&big) Student();
  st->gpa = 3.0;
}
""",
    expected_rules=(),
)

SAFE_CHECKED = CorpusProgram(
    key="safe-checked-placement",
    paper_ref="§5.1 (control: correct coding)",
    source=_CLASSES
    + """
Student stud;
void addStudent() {
  if (sizeof(GradStudent) <= sizeof(Student)) {
    GradStudent *st = new (&stud) GradStudent();
  }
}
""",
    expected_rules=(),
)

CLASSIC_STRCPY = CorpusProgram(
    key="classic-strcpy",
    paper_ref="(control: classic overflow)",
    source="""
void copyName(char *input) {
  char buf[16];
  strcpy(buf, input);
}
""",
    expected_rules=("CLASSIC-UNSAFE-API",),
    classic_vulnerable=True,
)

CLASSIC_GETS = CorpusProgram(
    key="classic-gets",
    paper_ref="(control: classic overflow)",
    source="""
void readLine() {
  char line[80];
  gets(line);
}
""",
    expected_rules=("CLASSIC-UNSAFE-API",),
    classic_vulnerable=True,
)

CLASSIC_SPRINTF = CorpusProgram(
    key="classic-sprintf",
    paper_ref="(control: classic overflow)",
    source="""
void formatId(char *user) {
  char out[32];
  sprintf(out, "%s-suffix", user);
}
""",
    expected_rules=("CLASSIC-UNSAFE-API",),
    classic_vulnerable=True,
)

INTERPROC_HELPER = CorpusProgram(
    key="interproc-helper-placement",
    paper_ref="§3.3/§5.1 (inter-procedural flow; extension)",
    source=_CLASSES
    + """
GradStudent *placeAt(Student *arena) {
  GradStudent *g = new (arena) GradStudent(3.0, 2011, 1);
  return g;
}
void caller() {
  Student s;
  GradStudent *g = placeAt(&s);
}
""",
    expected_rules=("PN-OVERSIZE",),
)

INTERPROC_TAINT = CorpusProgram(
    key="interproc-tainted-count",
    paper_ref="§3.3/§5.1 (inter-procedural taint; extension)",
    source="""
char pool[64];
char *carve(int n) {
  char *buf = new (pool) char[n];
  return buf;
}
void serve() {
  int n = 0;
  cin >> n;
  char *buf = carve(n * 8);
}
""",
    expected_rules=("PN-TAINTED-COUNT",),
)

INTERPROC_SAFE = CorpusProgram(
    key="interproc-safe-helper",
    paper_ref="(control: helper placement that fits)",
    source=_CLASSES
    + """
Student *placeAt(GradStudent *arena) {
  Student *s = new (arena) Student();
  return s;
}
void caller() {
  GradStudent big;
  Student *s = placeAt(&big);
}
""",
    expected_rules=(),
)

#: Interprocedural extension corpus (beyond the paper's listings; the
#: flows are the ones §3.3/§5.1 describe).
INTERPROC_CORPUS: tuple[CorpusProgram, ...] = (
    INTERPROC_HELPER,
    INTERPROC_TAINT,
    INTERPROC_SAFE,
)

#: The placement-new half of the corpus (what E13 scores tools on).
PLACEMENT_CORPUS: tuple[CorpusProgram, ...] = (
    LISTING_4,
    LISTING_5,
    LISTING_6,
    LISTING_7,
    LISTING_10,
    LISTING_11,
    LISTING_12,
    LISTING_13,
    LISTING_15,
    LISTING_17,
    LISTING_19,
    LISTING_21,
    LISTING_22,
    LISTING_23,
    VTABLE_VARIANT,
)

#: Controls: correct placement code that must not be flagged.
SAFE_CORPUS: tuple[CorpusProgram, ...] = (SAFE_PLACEMENT, SAFE_CHECKED)

#: Controls: classic overflows legacy tools do catch.
CLASSIC_CORPUS: tuple[CorpusProgram, ...] = (
    CLASSIC_STRCPY,
    CLASSIC_GETS,
    CLASSIC_SPRINTF,
)

FULL_CORPUS: tuple[CorpusProgram, ...] = (
    PLACEMENT_CORPUS + SAFE_CORPUS + CLASSIC_CORPUS
)


def corpus_sources(
    generated: int = 0, seed: int = 2011
) -> "list[tuple[str, str]]":
    """``(label, source)`` pairs for sweep-style batch analysis.

    The paper corpus, optionally extended with ``generated``
    reproducible programs from :func:`~repro.workloads.generators
    .generate_corpus` — the service layer and benchmarks use this to
    build arbitrarily large, deterministic sweep workloads.
    """
    sources = [(program.key, program.source) for program in FULL_CORPUS]
    if generated:
        from .generators import generate_corpus

        for index, program in enumerate(generate_corpus(seed, generated)):
            sources.append((f"generated-{seed}-{index:04d}", program.source))
    return sources
