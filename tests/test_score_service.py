"""Tests for score_graph over a WorkerPool, and its one analysis per
distinct package source."""

import sys

import pytest

from repro.cli import score_main
from repro.score import (
    DEMO_PACKAGES,
    Package,
    PackageGraph,
    analyze_package_source,
    demo_graph,
    render_package_source,
    score_graph,
    score_packages,
)
from repro.score import propagate
from repro.service import WorkerPool


class TestScoreCorpus:
    def test_parallel_report_matches_sequential(self):
        sequential = score_graph(demo_graph()).to_json()
        with WorkerPool(4) as pool:
            parallel = score_graph(demo_graph(), pool=pool).to_json()
        assert parallel == sequential

    def test_worker_count_does_not_change_bytes(self):
        with WorkerPool(1) as pool:
            one = score_graph(demo_graph(), pool=pool).to_json()
        with WorkerPool(4) as pool:
            four = score_graph(demo_graph(), pool=pool).to_json()
        assert one == four

    def test_accepts_directory_path(self, tmp_path):
        for package in DEMO_PACKAGES:
            (tmp_path / f"{package.name}.cpp").write_text(
                render_package_source(package)
            )
        with WorkerPool(2) as pool:
            score = score_graph(str(tmp_path), pool=pool)
        assert score.to_json() == score_graph(demo_graph()).to_json()

    def test_custom_attenuation_is_applied(self):
        with WorkerPool(2) as pool:
            score = score_graph(demo_graph(), attenuation=0.0, pool=pool)
        assert score.entry("core-pool").blast_radius == 5.0


# -- one analysis per distinct source ----------------------------------------

#: Where :func:`_counting_analyze` appends the label of each call; a file,
#: so calls made in pool worker processes are counted too.
_CALL_LOG = None


def _counting_analyze(source, label=""):
    with open(_CALL_LOG, "a") as log:
        log.write(label + "\n")
    return analyze_package_source(source, label)


def _shared_source_graph():
    """30 packages over four distinct sources, with import edges."""
    sources = sorted({package.source for package in DEMO_PACKAGES}) + [
        "void g(int n) {\n  int x = n;\n}\n"
    ]
    packages = []
    for index in range(30):
        name = f"m{(index * 11) % 30:02d}"
        imports = tuple(p.name for p in packages[-2:]) if index % 3 else ()
        packages.append(
            Package(name=name, source=sources[index % len(sources)], imports=imports)
        )
    return PackageGraph(packages)


def _write(graph, directory):
    for name in graph.names():
        (directory / f"{name}.cpp").write_text(render_package_source(graph.package(name)))


POOLS = pytest.mark.parametrize(
    "pool",
    [["--jobs", "0"], ["--jobs", "2", "--backend", "process"]],
    ids=["inline", "process"],
)


class TestSourceDedup:
    @POOLS
    def test_each_distinct_source_is_analyzed_once(
        self, tmp_path, monkeypatch, capsys, pool
    ):
        graph = _shared_source_graph()
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        _write(graph, corpus)
        log = tmp_path / "calls.log"
        monkeypatch.setattr(sys.modules[__name__], "_CALL_LOG", str(log))
        monkeypatch.setattr(propagate, "analyze_package_source", _counting_analyze)
        assert score_main(["rank", str(corpus), "--json", *pool]) == 0
        first_holders = {}
        for name in graph.names():
            first_holders.setdefault(graph.package(name).source, name)
        # Pool workers may finish out of order: compare as sorted lists,
        # which still counts every call.
        assert sorted(log.read_text().splitlines()) == sorted(first_holders.values())
        assert len(first_holders) == 4 < len(graph)
        per_package = {
            name: analyze_package_source(graph.package(name).source, name)
            for name in graph.names()
        }
        expected = score_packages(graph, per_package).to_json()
        assert capsys.readouterr().out == expected + "\n"

    @POOLS
    def test_shared_unparsable_source_names_its_first_package(
        self, tmp_path, capsys, pool
    ):
        for name in ("zeta", "alpha", "mid"):
            (tmp_path / f"{name}.cpp").write_text(
                "int main( {\n" if name != "mid" else "void f() {}\n"
            )
        assert score_main(["rank", str(tmp_path), *pool]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: package alpha: 1:11: expected identifier, got '{'\n"
