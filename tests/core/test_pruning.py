"""White-box tests of the IsTa repository pruning (splice-and-merge)."""

from repro.core.prefix_tree import PrefixTree, PrefixTreeNode

A, B, C, D = (1 << i for i in range(4))


def build_tree(*masks):
    tree = PrefixTree()
    for mask in masks:
        tree.add_transaction(mask)
    return tree


class TestSplice:
    def test_deficient_leaf_removed(self):
        tree = build_tree(C | A, C | B)
        # node {c,a} has supp 1; with no remaining occurrences of a and
        # smin 2 it can never become frequent.
        remaining = [0, 5, 5, 5]
        tree.prune(remaining, smin=2)
        assert tree.find(C | A) is None
        assert tree.find(C) is not None

    def test_children_spliced_into_parent(self):
        # path c -> b -> a; b deficient: {c,b,a} should collapse to {c,a}
        tree = build_tree(C | B | A)
        remaining = [5, 0, 5, 5]
        tree.prune(remaining, smin=2)
        assert tree.find(C | B) is None
        node = tree.find(C | A)
        assert node is not None

    def test_merge_keeps_support_maximum(self):
        tree = build_tree(C | B | A, C | A, C | A)
        # {c,a} exists with supp 3; {c,b,a} with supp 1.  Removing b
        # merges the a-under-b node into the a-under-c node: max wins.
        before = tree.find(C | A).supp
        remaining = [9, 0, 9, 9]
        tree.prune(remaining, smin=3)
        node = tree.find(C | A)
        assert node is not None
        assert node.supp == before == 3

    def test_healthy_nodes_untouched(self):
        tree = build_tree(C | A, C | A)
        nodes_before = tree.n_nodes
        tree.prune([9, 9, 9, 9], smin=2)
        assert tree.n_nodes == nodes_before

    def test_node_count_consistent_after_splice(self):
        tree = build_tree(D | C | B | A, D | B)
        remaining = [0, 0, 0, 0]
        tree.prune(remaining, smin=100)
        # everything is deficient: the tree must be empty
        assert tree.n_nodes == 0
        assert list(tree.report(1)) == []

    def test_spliced_in_grandchild_can_be_deficient_too(self):
        """The fixpoint loop must re-examine spliced-in children."""
        tree = build_tree(C | B | A)
        # both b and a deficient: after splicing b, the spliced-in a
        # node must go as well.
        remaining = [0, 0, 9, 9]
        tree.prune(remaining, smin=2)
        assert tree.find(C) is not None
        assert tree.find(C | A) is None
        assert tree.find(C | B) is None


class TestMergeNodes:
    def test_iterative_merge_of_deep_subtrees(self):
        """Merging must not recurse (deep paths would overflow)."""
        tree = PrefixTree()
        depth = 5000

        def chain(supp):
            head = PrefixTreeNode(depth + 1, supp)
            node = head
            for item in range(depth, 0, -1):
                child = PrefixTreeNode(item, supp)
                node.children[item] = child
                node = child
            return head

        left = chain(supp=1)
        right = chain(supp=2)
        tree._n_nodes = 2 * (depth + 1)
        tree._merge_nodes(left, right)
        assert left.supp == 2
        node = left
        while node.children:
            node = next(iter(node.children.values()))
            assert node.supp == 2
        assert tree._n_nodes == depth + 1
