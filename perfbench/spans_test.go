package main

import (
	"strings"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Op: "j", Name: "root", Start: 0, End: 100, Parent: -1},
		{Op: "j", Name: "a", Start: 10, End: 40, Parent: 0},
		{Op: "j", Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Op: "j", Name: "c", Start: 90, End: 120, Parent: 0}, // 20 of it outside the root
		{Op: "j", Name: "a1", Start: 15, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	// Children of the root cover [10,60] and [90,100]: 60 of its 100.
	want := []int64{40, 25, 30, 30, 5}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestReconcileAcceptsNestedTreesAndRejectsEscapes(t *testing.T) {
	nested := []span{
		{Op: "j", Name: "job", Start: 0, End: 100_000, Parent: -1},
		{Op: "j", Name: "mine", Start: 10_000, End: 90_000, Parent: 0},
		{Op: "j", Name: "pass", Start: 20_000, End: 50_000, Parent: 1},
		{Op: "j", Name: "pass", Start: 50_000, End: 80_000, Parent: 1},
		{Op: "b", Name: "batch", Start: 5_000, End: 9_000, Parent: -1},
	}
	if err := reconcile(nested, 0.01); err != nil {
		t.Fatalf("nested tree: %v", err)
	}
	overlap := append([]span(nil), nested...)
	overlap[3].Start = 30_000 // the second pass overlaps the first
	if err := reconcile(overlap, 0.01); err == nil || !strings.Contains(err.Error(), "op j") {
		t.Fatalf("overlapping siblings reconciled: %v", err)
	}
	open := append([]span(nil), nested...)
	open[2].End = -1
	if err := reconcile(open, 0.01); err == nil {
		t.Fatal("an unended span reconciled")
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	h := r.begin("op", "x", -1)
	r.end(h)
	if h != -1 || r.snapshot() != nil {
		t.Fatalf("nil recorder recorded: handle %d, spans %v", h, r.snapshot())
	}
	r = newRecorder()
	root := r.begin("op", "root", -1)
	r.end(r.begin("op", "child", root))
	r.end(root)
	if err := reconcile(r.snapshot(), 0.01); err != nil {
		t.Fatal(err)
	}
}
