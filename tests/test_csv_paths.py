"""numpy's C reader and the csv row parser read every node and edge file
alike: the same columns bit for bit, NaN signs included, the same Graph,
or, where they disagree, the error the row parser raises."""
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netrand import data, graph

# tokens Python's int()/float() and csv read differently from numpy, or reject
ODD = ["1_000", "١٢", '"3"', '"a,b"', "0x10", "1e3", "+4", "007", "-0", "", " ",
       "\t2 ", "2.5", "9" * 20, "nan", "-nan", "+nan", "inf", "-Infinity", "x", " m ",
       "1\x002", "\xa05", "\x0c6"]
odd = st.sampled_from(ODD)
ints = st.integers(-10**20, 10**20).map(str)
floats = st.one_of(
    st.floats(allow_subnormal=True).map(repr),
    # 17+ digit mantissas
    st.builds(lambda d, e: f"{d[0]}.{d[1:]}e{e}", st.text("0123456789", min_size=17, max_size=30),
              st.integers(-330, 310)),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "5e-324", "2.2250738585072011e-308"]))
labels = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["f", "m", " f", "s1 "]))
pad = st.sampled_from(["", " ", "\t"])


def padded(tokens):
    return st.builds(lambda a, t, b: a + t + b, pad, tokens, pad)


def column(main, noisy):
    return padded(st.one_of(main, main, main, ints, floats, odd) if noisy else main)


# a token per node column, in a clean file or a noisy one; @ in the id
# column stands for the unit's own id
COLUMNS = {noisy: {"id": column(st.just("@"), noisy),
                   "t": column(st.sampled_from(["0", "1"]), noisy),
                   "y": column(floats, noisy), "weight": column(floats, noisy)}
           for noisy in (False, True)}
# an edge endpoint token on n units
UNITS = {(n, noisy): column(st.integers(0, n - 1).map(str), noisy)
         for n in range(1, 7) for noisy in (False, True)}
blank_lines = {False: st.lists(st.just(""), max_size=1),
               True: st.lists(st.sampled_from(["", " ", "\t"]), max_size=1)}
newlines = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def lines_of(draw, header, rows, noisy):
    """header and rows joined by one newline kind, with blank lines (and
    in a noisy file whitespace-only ones) put in between."""
    lines = [] if header is None else [header]
    for row in rows:
        lines += draw(blank_lines[noisy]) + [row]
    newline = draw(newlines)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def node_files(draw):
    n, noisy = draw(st.integers(1, 6)), draw(st.booleans())
    names = draw(st.permutations(
        ["id", "y", "t", *draw(st.lists(st.sampled_from(["x", "stratum", "weight", "note", "y"]),
                                        max_size=3, unique=True))]))
    header = ",".join([draw(pad) + name + draw(pad) for name in names])
    rows = []
    for i in draw(st.permutations(range(n))):
        fields = [draw(COLUMNS[noisy].get(name, labels)) for name in names]
        fields[names.index("id")] = fields[names.index("id")].replace("@", str(i))
        if noisy:  # a field short or a field over
            fields = fields[:draw(st.sampled_from([len(fields)] * 8 + [len(fields) - 1]))]
            fields += draw(st.lists(labels, max_size=1))
        rows.append(",".join(fields))
    return draw(lines_of(header, rows, noisy))


@st.composite
def edge_files(draw):
    n, noisy = draw(st.integers(1, 6)), draw(st.booleans())
    header = draw(st.sampled_from([None, None, "src,dst", " src , dst ", "src,dst,w", "src",
                                   "0,x", "1_000,2"]))
    extra = st.one_of(floats, odd) if noisy else floats
    rows = [",".join(draw(st.lists(UNITS[n, noisy], min_size=2, max_size=2))
                     + draw(st.lists(extra, max_size=2)))
            for _ in range(draw(st.integers(0, 8)))]
    return draw(lines_of(header, rows, noisy)), draw(st.sampled_from([None, n]))


def outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # the error is the outcome to compare
        return exc


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and (a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return (a.n_units == b.n_units and a.symmetrized == b.symmetrized
            and same(a.indptr, b.indptr) and same(a.indices, b.indices))


def both_paths(module, fast, read, path, *args):
    """read's outcome as it is, and with module's fast reader declining."""
    got = outcome(read, path, *args)
    with mock.patch.object(module, fast, lambda path: None):
        return got, outcome(read, path, *args)


def write(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(node_files())
@example("id,y,t\n")  # header only
@example("id,y,t\n0,1.0,0,9\n1,2.0,1\n")  # a field past the header's
@example("id,y,t,y\n0,1.0,0,2.0\n")  # a duplicate name
@example("id , y,t,x,weight\r\n1,-nan,1,f,1e-310\r\n\r\n0,2.5,0, 3,inf\r\n")
def test_node_readers_agree(tmp_path_factory, text):
    path = write(tmp_path_factory.mktemp("nodes") / "nodes.csv", text)
    got, want = both_paths(data, "_read_nodes_fast", data.read_nodes_csv, path)
    assert same(got, want), (got, want)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(edge_files())
@example(("", 3))  # empty, with a node count
@example(("src,dst\n", None))
@example(("src,dst\n0,1,0.5,x\n1,2\n", None))
@example(("0,1\n \n1,2\n", 4))
def test_edge_readers_agree(tmp_path_factory, case):
    text, n_units = case
    path = write(tmp_path_factory.mktemp("edges") / "edges.csv", text)
    got, want = both_paths(graph, "_read_edges_fast", graph.read_edge_csv, path, n_units)
    assert same(got, want), (got, want)


def test_fast_path_reads_a_plain_file(tmp_path):
    # the tests above would pass if the fast readers always declined
    nodes = write(tmp_path / "n.csv", "id,y,t,x\n1,-nan,0,a\n0,2.5,1, 3\n")
    edges = write(tmp_path / "e.csv", "src,dst,w\n0,1,0.5\n")
    cols = data._read_nodes_fast(nodes)
    assert cols["y"].tobytes() == np.array([2.5, -np.nan]).tobytes()
    assert cols["x"].tolist() == ["3", "a"]
    assert graph._read_edges_fast(edges).tolist() == [[0, 1]]
