"""Tests for the package graph layer."""

import pytest

from repro.score.packages import (
    DEMO_PACKAGES,
    Package,
    PackageGraph,
    demo_graph,
    generated_package_graph,
    load_package_dir,
    parse_package_source,
    render_package_source,
)


class TestHeaderFormat:
    def test_parse_name_and_imports(self):
        package = parse_package_source(
            "// package: svc-auth\n"
            "// imports: core-pool, lib-serialize\n"
            "void f() { int x = 1; }\n"
        )
        assert package.name == "svc-auth"
        assert package.imports == ("core-pool", "lib-serialize")
        assert package.source == "void f() { int x = 1; }\n"

    def test_missing_header_falls_back_to_default_name(self):
        package = parse_package_source("void f() {}\n", "from-filename")
        assert package.name == "from-filename"
        assert package.imports == ()

    def test_no_name_at_all_is_rejected(self):
        with pytest.raises(ValueError, match="package"):
            parse_package_source("void f() {}\n")

    def test_render_parse_roundtrip(self):
        for package in DEMO_PACKAGES:
            again = parse_package_source(render_package_source(package))
            assert again == package


class TestPackageGraph:
    def test_unknown_import_is_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PackageGraph([Package(name="a", source="", imports=("ghost",))])

    def test_self_import_is_rejected(self):
        with pytest.raises(ValueError, match="imports itself"):
            PackageGraph([Package(name="a", source="", imports=("a",))])

    def test_duplicate_name_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PackageGraph(
                [Package(name="a", source=""), Package(name="a", source="")]
            )

    def test_cycle_is_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            PackageGraph(
                [
                    Package(name="a", source="", imports=("b",)),
                    Package(name="b", source="", imports=("c",)),
                    Package(name="c", source="", imports=("a",)),
                ]
            )

    def test_transitive_dependents_with_min_depth(self):
        graph = demo_graph()
        dependents = graph.transitive_dependents("core-pool")
        assert dependents == {
            "lib-serialize": 1,
            "svc-auth": 1,
            "svc-cache": 1,
            "app-batch": 2,
            "app-gateway": 2,
        }

    def test_min_depth_wins_on_diamond(self):
        graph = PackageGraph(
            [
                Package(name="base", source=""),
                Package(name="mid", source="", imports=("base",)),
                Package(name="top", source="", imports=("base", "mid")),
            ]
        )
        assert graph.transitive_dependents("base") == {"mid": 1, "top": 1}
        assert graph.transitive_dependencies("top") == {"base": 1, "mid": 1}

    def test_topological_order_puts_dependencies_first(self):
        order = demo_graph().topological()
        assert order.index("core-pool") < order.index("svc-auth")
        assert order.index("svc-auth") < order.index("app-gateway")

    def test_cycle_message_names_the_cycle_in_order(self):
        with pytest.raises(ValueError) as raised:
            PackageGraph(
                [
                    Package(name="a", source="", imports=("b",)),
                    Package(name="b", source="", imports=("c",)),
                    Package(name="c", source="", imports=("b",)),
                ]
            )
        assert str(raised.value) == "package import cycle: b -> c -> b"

    @pytest.mark.parametrize("forward", [True, False], ids=["imports-next", "imports-previous"])
    def test_deep_import_chain_builds_and_sorts_without_recursion(self, forward):
        names = [f"p{i:05d}" for i in range(5000)]
        step = 1 if forward else -1
        graph = PackageGraph(
            Package(
                name=name,
                source="",
                imports=(names[i + step],) if 0 <= i + step < len(names) else (),
            )
            for i, name in enumerate(names)
        )
        order = graph.topological()
        assert order == (names[::-1] if forward else names)
        importer = names[0] if forward else names[1]
        assert graph.transitive_dependents(names[1] if forward else names[0])[importer] == 1
        assert len(graph.transitive_dependencies(names[0 if forward else -1])) == 4999

    def test_deep_chain_cycle_is_reported(self):
        names = [f"p{i:05d}" for i in range(3000)]
        packages = [
            Package(name=name, source="", imports=(names[(i + 1) % len(names)],))
            for i, name in enumerate(names)
        ]
        with pytest.raises(ValueError) as raised:
            PackageGraph(packages)
        message = str(raised.value)
        assert message.startswith("package import cycle: p00000 -> p00001 -> ")
        assert message.endswith(" -> p02999 -> p00000")


class TestLoadAndGenerate:
    def test_load_package_dir_roundtrip(self, tmp_path):
        for package in DEMO_PACKAGES:
            (tmp_path / f"{package.name}.cpp").write_text(
                render_package_source(package)
            )
        graph = load_package_dir(tmp_path)
        assert graph.names() == sorted(p.name for p in DEMO_PACKAGES)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_package_dir(tmp_path / "nope")

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no .* packages"):
            load_package_dir(tmp_path)

    def test_generated_graph_is_reproducible(self):
        first = generated_package_graph(7, 12)
        second = generated_package_graph(7, 12)
        assert first.names() == second.names()
        for name in first.names():
            assert first.package(name) == second.package(name)

    def test_generated_graph_is_a_dag_with_edges(self):
        graph = generated_package_graph(2026, 24)
        assert len(graph) == 24
        assert any(graph.package(name).imports for name in graph.names())

    def test_committed_corpus_matches_generator(self):
        from pathlib import Path

        corpus = Path(__file__).resolve().parent.parent / "corpus" / "packages"
        committed = load_package_dir(corpus)
        generated = generated_package_graph(2026, 24)
        assert committed.names() == generated.names()
        for name in committed.names():
            assert committed.package(name) == generated.package(name)
