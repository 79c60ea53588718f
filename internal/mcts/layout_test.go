package mcts

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestNodeLayout pins the statistics layout: the per-round counters are
// not Node fields but slots of the parent's block, so Node carries no
// visit or reward field and no padding, and a block's slots sit
// back to back, so a UCT step scans one contiguous array.
func TestNodeLayout(t *testing.T) {
	typ := reflect.TypeOf(Node{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			t.Errorf("Node has a %d-byte blank field at offset %d: padding protects nothing now", f.Type.Size(), f.Offset)
		}
		switch strings.ToLower(f.Name) {
		case "visits", "reward", "mean":
			t.Errorf("Node has hot counter field %s; statistics belong in the parent's block", f.Name)
		}
	}
	if sz := unsafe.Sizeof(Node{}); sz > 128 {
		t.Errorf("Node size %d exceeds 128 bytes: structural fields only, no counters or padding", sz)
	}
	e := newEnv(t)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), newTestRng(42))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	root := tree.Root()
	if root.stat != &tree.rootStat {
		t.Error("the original root's slot should live on the Tree")
	}
	for i, c := range root.Children {
		if c.stat != &root.kids.stats[i] {
			t.Fatalf("child %d's slot is not slot %d of its parent's block", i, i)
		}
	}
	stats := root.kids.stats
	if len(stats) < 2 {
		t.Skip("root has fewer than 2 children")
	}
	stride := unsafe.Sizeof(stats[0])
	if gap := uintptr(unsafe.Pointer(&stats[1])) - uintptr(unsafe.Pointer(&stats[0])); gap != stride || stride != 24 {
		t.Errorf("block slots are %d bytes apart with %d-byte slots, want contiguous 24-byte slots", gap, stride)
	}
}

// TestExpandSlabContiguity verifies expansion carves children out of one
// contiguous slab (the per-expansion arena): consecutive siblings sit
// exactly sizeof(Node) apart.
func TestExpandSlabContiguity(t *testing.T) {
	e := newEnv(t)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), newTestRng(42))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	kids := tree.Root().Children
	if len(kids) < 2 {
		t.Skip("root has fewer than 2 children")
	}
	stride := unsafe.Sizeof(*kids[0])
	for i := 1; i < len(kids); i++ {
		prev := uintptr(unsafe.Pointer(kids[i-1]))
		cur := uintptr(unsafe.Pointer(kids[i]))
		if cur-prev != stride {
			t.Fatalf("children %d and %d are %d bytes apart, want %d (not slab-allocated)",
				i-1, i, cur-prev, stride)
		}
	}
}
