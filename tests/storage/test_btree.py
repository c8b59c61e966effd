"""Tests for the page-based B+ tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import serialize
from repro.adm.serializer import serialize_tuple
from repro.common.errors import DuplicateKeyError, StorageError
from repro.storage import BTree, BufferCache
from repro.storage.btree import _Interior, _Leaf


def val(i):
    return serialize({"v": i})


class TestBasics:
    def test_empty_search(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        assert tree.search((1,)) is None
        assert list(tree.range_scan()) == []

    def test_insert_and_search(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert((5,), b"five")
        tree.insert((3,), b"three")
        assert tree.search((5,)) == b"five"
        assert tree.search((3,)) == b"three"
        assert tree.search((4,)) is None
        assert tree.count == 2

    def test_unique_violation(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert((1,), b"a", unique=True)
        with pytest.raises(DuplicateKeyError):
            tree.insert((1,), b"b", unique=True)

    def test_replace(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert((1,), b"a")
        tree.insert((1,), b"b", replace=True)
        assert tree.search((1,)) == b"b"
        assert tree.count == 1

    def test_composite_keys(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert(("alice", 2), b"a2")
        tree.insert(("alice", 1), b"a1")
        tree.insert(("bob", 1), b"b1")
        keys = [k for k, _ in tree.range_scan(lo=("alice",), hi=("alice", 99))]
        assert keys == [("alice", 1), ("alice", 2)]

    def test_string_and_mixed_keys(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        tree.insert(("zeta",), b"z")
        tree.insert((10,), b"i")
        tree.insert((2.5,), b"f")
        keys = [k[0] for k, _ in tree.range_scan()]
        assert keys == [2.5, 10, "zeta"]  # numerics before strings


class TestSplits:
    def test_many_inserts_force_splits(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        n = 2000
        order = list(range(n))
        random.Random(42).shuffle(order)
        for i in order:
            tree.insert((i,), val(i))
        assert tree.height > 1
        assert tree.count == n
        for i in random.Random(7).sample(range(n), 50):
            assert tree.search((i,)) == val(i)
        keys = [k[0] for k, _ in tree.range_scan()]
        assert keys == list(range(n))

    def test_descending_inserts(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        for i in reversed(range(500)):
            tree.insert((i,), b"x")
        assert [k[0] for k, _ in tree.range_scan()] == list(range(500))

    def test_large_values(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        big = b"x" * 1000
        for i in range(20):
            tree.insert((i,), big)
        assert tree.search((7,)) == big

    def test_oversized_value_rejected(self, fm, cache):
        tree = BTree.create(cache, fm.create_file("t"))
        with pytest.raises(StorageError):
            tree.insert((1,), b"x" * 5000)


class TestRangeScan:
    @pytest.fixture
    def tree(self, fm, cache):
        t = BTree.create(cache, fm.create_file("t"))
        for i in range(0, 100, 2):  # evens 0..98
            t.insert((i,), val(i))
        return t

    def test_full_scan(self, tree):
        assert len(list(tree.range_scan())) == 50

    def test_bounded_inclusive(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(lo=(10,), hi=(20,))]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_bounded_exclusive(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(
            lo=(10,), hi=(20,), lo_inclusive=False, hi_inclusive=False)]
        assert keys == [12, 14, 16, 18]

    def test_bounds_between_keys(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(lo=(9,), hi=(15,))]
        assert keys == [10, 12, 14]

    def test_open_ended_high(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(lo=(94,))]
        assert keys == [94, 96, 98]

    def test_open_ended_low(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(hi=(4,))]
        assert keys == [0, 2, 4]

    def test_empty_range(self, tree):
        assert list(tree.range_scan(lo=(51,), hi=(51,))) == []


class TestBulkLoad:
    def test_bulk_load_and_search(self, fm, cache):
        pairs = [((i,), val(i)) for i in range(5000)]
        tree = BTree.bulk_load(cache, fm.create_file("t"), pairs)
        assert tree.count == 5000
        assert tree.height >= 2
        for i in (0, 1, 2499, 4999):
            assert tree.search((i,)) == val(i)
        assert [k[0] for k, _ in tree.range_scan(lo=(100,), hi=(105,))] == \
            [100, 101, 102, 103, 104, 105]

    def test_bulk_load_empty(self, fm, cache):
        tree = BTree.bulk_load(cache, fm.create_file("t"), [])
        assert tree.count == 0
        assert tree.search((1,)) is None

    def test_bulk_load_rejects_unsorted(self, fm, cache):
        with pytest.raises(StorageError, match="sorted"):
            BTree.bulk_load(cache, fm.create_file("t"),
                            [((2,), b"b"), ((1,), b"a")])

    def test_bulk_load_cheaper_than_inserts(self, fm, device):
        """The Graefe lesson's load half (E2): loading sorted data writes
        far fewer pages than one-at-a-time inserts."""
        from repro.storage import BufferCache, FileManager

        pairs = [((i,), val(i)) for i in range(3000)]

        fm_bulk = fm
        cache = BufferCache(fm_bulk, num_pages=16)
        before = device.stats.snapshot()
        BTree.bulk_load(cache, fm_bulk.create_file("bulk"), pairs)
        bulk_writes = device.stats.diff(before).total_writes

        shuffled = list(pairs)
        random.Random(3).shuffle(shuffled)
        cache2 = BufferCache(fm_bulk, num_pages=16)
        tree = BTree.create(cache2, fm_bulk.create_file("onebyone"))
        before = device.stats.snapshot()
        for k, v in shuffled:
            tree.insert(k, v)
        cache2.flush_all()
        after = device.stats.diff(before)
        insert_io = after.total_writes + after.total_reads

        assert bulk_writes * 2 < insert_io

    def test_reopen(self, fm, cache):
        handle = fm.create_file("t")
        pairs = [((i,), val(i)) for i in range(100)]
        BTree.bulk_load(cache, handle, pairs)
        cache.evict_file(handle)
        reopened = BTree.open(cache, handle)
        assert reopened.count == 100
        assert reopened.search((42,)) == val(42)


def _levels(tree):
    """The tree's nodes, level by level from the leaves up, each level
    left to right."""
    levels = [[tree._read_node(tree.root_page)]]
    while isinstance(levels[-1][0], _Interior):
        levels.append([tree._read_node(child) for node in levels[-1]
                       for child in node.children])
    return levels[::-1]


def _first_key(tree, node):
    while isinstance(node, _Interior):
        node = tree._read_node(node.children[0])
    return node.keys[0]


@given(
    count=st.integers(1, 800),
    seed=st.integers(0, 2 ** 32),
    fill_factor=st.floats(0.3, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_bulk_load_packs_pages_greedily(tmp_path_factory, count, seed,
                                        fill_factor):
    """Property: bulk load packs each page until the next entry would
    overflow ``page_size * fill_factor``.  Every sealed node fits the
    limit by ``_Leaf.size()`` / ``_Interior.size()`` (unless it holds the
    minimum a node must: one leaf entry, two children) and would overflow
    it with the next entry; this pins the page layout, and with it the
    simulated I/O, of every flush and merge."""
    from repro.storage import FileManager, IODevice

    root = tmp_path_factory.mktemp("bulk")
    fm = FileManager([IODevice(0, str(root))], page_size=512)
    cache = BufferCache(fm, num_pages=32)
    rng = random.Random(seed)
    pairs = [(("k" * rng.randrange(40), i), b"v" * rng.randrange(121))
             for i in range(count)]
    pairs.sort(key=lambda pair: pair[0])
    tree = BTree.bulk_load(cache, fm.create_file("t"), pairs,
                           fill_factor=fill_factor)
    limit = int(512 * fill_factor)
    levels = _levels(tree)
    leaves = levels[0]
    assert [k for leaf in leaves for k in leaf.keys] == [k for k, _ in pairs]
    for leaf, nxt in zip(leaves, leaves[1:]):
        assert isinstance(leaf, _Leaf)
        assert leaf.size() <= limit or len(leaf.keys) == 1
        entry = 4 + len(serialize_tuple(nxt.keys[0])) + len(nxt.values[0])
        assert leaf.size() + entry > limit
    for level in levels[1:]:
        for node, nxt in zip(level, level[1:]):
            assert node.size() <= limit or len(node.children) == 2
            extra = 6 + len(serialize_tuple(_first_key(tree, nxt)))
            assert node.size() + extra > limit
    assert len(levels[-1]) == 1 and tree.height == len(levels)
    fm.close()


class TestSmallCachePressure:
    def test_works_with_tiny_cache(self, fm, small_cache):
        tree = BTree.create(small_cache, fm.create_file("t"))
        for i in range(800):
            tree.insert((i,), val(i))
        assert tree.search((777,)) == val(777)
        assert len(list(tree.range_scan())) == 800


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "search"]),
            st.integers(0, 50),
        ),
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_btree_matches_dict_model(tmp_path_factory, ops):
    """Property: a B+ tree behaves like a dict (modulo ordering)."""
    from repro.storage import FileManager, IODevice

    root = tmp_path_factory.mktemp("prop")
    fm = FileManager([IODevice(0, str(root))], page_size=512)
    cache = BufferCache(fm, num_pages=32)
    tree = BTree.create(cache, fm.create_file("t"))
    model = {}
    for op, k in ops:
        if op == "insert":
            tree.insert((k,), val(k), replace=True)
            model[k] = val(k)
        else:
            expect = model.get(k)
            assert tree.search((k,)) == expect
    assert [k[0] for k, _ in tree.range_scan()] == sorted(model)
    fm.close()
