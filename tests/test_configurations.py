import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseudochaos import (
    Configuration,
    Kernel,
    Point,
    TimeCollisionError,
    Window,
    add_points,
    sample_poisson,
)
from pseudochaos.configurations import _poisson_arrays, read_csv, write_csv
from pseudochaos.mc import rng_from_key


def test_same_key_gives_identical_configurations():
    w = Window(T=4.0, M=2.0)
    a = sample_poisson(w, (123, 5))
    b = sample_poisson(w, (123, 5))
    assert a.atoms == b.atoms
    c = sample_poisson(w, (123, 6))
    assert c.atoms != a.atoms


@pytest.mark.parametrize("window", [Window(T=3.0, M=2.0), Window(T=5.0, M=4.0)])
def test_poisson_arrays_are_the_sampled_configuration(window):
    # the audit and desk windows: the arrays are sample_poisson's atoms bit
    # for bit, since a float's tolist() round trip through Point is exact
    for i in range(2000):
        times, marks = _poisson_arrays(window, rng_from_key((2626, i)))
        config = sample_poisson(window, (2626, i))
        assert times.tobytes() == config.times.tobytes()
        assert marks.tobytes() == config.marks.tobytes()


def test_vanishing_window_gives_empty_configuration():
    assert len(sample_poisson(Window(T=1e-12, M=1.0), (0, 0))) == 0


def test_poisson_mean_atom_count():
    w = Window(T=5.0, M=1.0)
    counts = np.array([len(sample_poisson(w, (42, i))) for i in range(10_000)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - 5.0) <= 3 * se


def test_sampled_times_are_strictly_increasing():
    for i in range(50):
        cfg = sample_poisson(Window(T=2.0, M=3.0), (9, i))
        assert np.all(np.diff(cfg.times) > 0)


def test_add_points_to_empty():
    w = Window(T=3.0, M=2.0)
    cfg = add_points(Configuration.empty(w), [Point(1.0, 0.5)])
    assert cfg.atoms == (Point(1.0, 0.5),)


def test_add_points_is_idempotent_for_duplicates():
    w = Window(T=3.0, M=2.0)
    cfg = add_points(Configuration.empty(w), [Point(1.0, 0.5)])
    again = add_points(cfg, [Point(1.0, 0.5)])
    assert again.atoms == cfg.atoms


def test_add_points_sorts_by_time():
    w = Window(T=3.0, M=2.0)
    cfg = Configuration(w, (Point(2.0, 1.1),))
    merged = add_points(cfg, [Point(1.0, 0.5)])
    assert merged.atoms == (Point(1.0, 0.5), Point(2.0, 1.1))


def test_add_points_rejects_time_collisions():
    w = Window(T=3.0, M=2.0)
    cfg = Configuration(w, (Point(1.0, 0.5),))
    with pytest.raises(TimeCollisionError):
        add_points(cfg, [Point(1.0, 0.7)])


def test_add_points_rejects_out_of_window():
    w = Window(T=3.0, M=2.0)
    with pytest.raises(ValueError):
        add_points(Configuration.empty(w), [Point(4.0, 0.5)])


@given(
    st.lists(st.integers(0, 40), unique=True, min_size=0, max_size=6),
    st.lists(st.integers(41, 80), unique=True, min_size=0, max_size=6),
)
def test_add_points_composes_over_disjoint_sets(grid_a, grid_b):
    w = Window(T=10.0, M=1.0)
    a = [Point(0.1 + 0.1 * g, 0.5) for g in grid_a]
    b = [Point(0.1 + 0.1 * g, 0.5) for g in grid_b]
    base = Configuration.empty(w)
    assert add_points(add_points(base, a), b) == add_points(base, a + b)


def test_configuration_invariants():
    w = Window(T=2.0, M=1.0)
    with pytest.raises(ValueError):
        Configuration(w, (Point(3.0, 0.5),))   # beyond horizon
    with pytest.raises(ValueError):
        Configuration(w, (Point(1.0, 2.0),))   # above mark ceiling
    with pytest.raises(ValueError):
        Configuration(w, (Point(1.5, 0.5), Point(1.0, 0.4)))  # unsorted
    with pytest.raises(TimeCollisionError):
        Configuration(w, (Point(1.0, 0.5), Point(1.0, 0.4)))


def test_window_invariants():
    with pytest.raises(ValueError):
        Window(T=0.0, M=1.0)
    with pytest.raises(ValueError):
        Window(T=1.0, M=-1.0)
    with pytest.raises(ValueError):
        Point(-1.0, 0.5)


def test_csv_roundtrip(tmp_path):
    w = Window(T=4.0, M=2.0)
    cfg = sample_poisson(w, (7, 3))
    path = tmp_path / "atoms.csv"
    write_csv(cfg, path, rng_key=(7, 3))
    text = path.read_text()
    assert text.startswith("# rng_key=7,3\n")
    assert text.splitlines()[1] == "t,theta"
    assert read_csv(path, w) == cfg


def test_read_csv_names_the_line_of_a_short_row(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("# comment\nt,theta\n0.5,1.0\n0.5\n")
    with pytest.raises(ValueError, match=r"atoms\.csv, line 4"):
        read_csv(path, Window(T=4.0, M=2.0))


_CELL = st.one_of(
    st.floats(0.0, 5.0).map(repr),
    st.floats().map(repr),
    st.text(alphabet=' ,."#-+e0123456789\t\r\nnaif', max_size=8),
)
_ROWS = st.lists(st.lists(_CELL, max_size=3).map(",".join), max_size=8)


@pytest.mark.parametrize(
    "header, read",
    [("t,theta", lambda path: read_csv(path, Window(T=4.0, M=2.0))), ("t,value", Kernel.from_csv)],
    ids=["read_csv", "Kernel.from_csv"],
)
@given(data=st.data())
def test_csv_readers_raise_only_value_errors(tmp_path_factory, header, read, data):
    content = data.draw(
        st.one_of(
            st.binary(max_size=200),
            st.text(max_size=200),
            _ROWS.map(lambda rows: "\n".join([header] + rows)),
        )
    )
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    try:
        read(path)
    except ValueError:
        pass


def test_restrict_drops_outside_atoms():
    big = Window(T=10.0, M=5.0)
    cfg = Configuration(big, (Point(1.0, 0.5), Point(6.0, 0.5), Point(7.0, 4.5)))
    small = cfg.restrict(Window(T=5.0, M=1.0))
    assert small.atoms == (Point(1.0, 0.5),)
