package graph

import (
	"reflect"
	"testing"
)

// diamond is 0 -> {1, 2} -> 3, plus an isolated node 4. Node 3 is two
// hops out either way; the adjacency order makes 1 its first parent.
func diamond(u int, buf []int) []int {
	return append(buf, [][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2}, {}}[u]...)
}

func TestBFSTreeKeepsFirstParentInAdjacencyOrder(t *testing.T) {
	got := BFSTree(0, diamond)
	want := map[int]int{0: 0, 1: 0, 2: 0, 3: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFSTree = %v, want %v", got, want)
	}
}

func TestReachStopsAtDepth(t *testing.T) {
	for depth, want := range map[int]map[int]int{
		0:  {},
		1:  {1: 1, 2: 1},
		2:  {1: 1, 2: 1, 3: 2},
		-1: {1: 1, 2: 1, 3: 2},
	} {
		if got := Reach(0, depth, diamond); !reflect.DeepEqual(got, want) {
			t.Errorf("Reach(depth %d) = %v, want %v", depth, got, want)
		}
	}
}

func TestPruneSpansReachedDests(t *testing.T) {
	got := Prune(BFSTree(0, diamond), 0, []int{3, 4})
	want := map[int]int{0: 0, 1: 0, 3: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Prune = %v, want %v", got, want)
	}
}
