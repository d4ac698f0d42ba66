package main

import (
	"strings"
	"testing"

	"repro/internal/flightrec"
	"repro/internal/obs"
)

func TestPrintTraceTree(t *testing.T) {
	root := record(1, obs.Event{Tick: 4, Kind: obs.KindPlacementIssued, Workload: "web", TraceID: 0xff})
	child := record(2, obs.Event{Tick: 5, Kind: obs.KindPlacementExecuted, Workload: "web", TraceID: 0xff})
	orphan := record(3, obs.Event{Tick: 6, Kind: obs.KindWayGrant, Workload: "web", TraceID: 0xff})
	tree := &flightrec.TraceTree{
		TraceID: 0xff,
		Roots:   []*flightrec.TraceNode{{Record: root, Children: []*flightrec.TraceNode{{Record: child}}}},
		Orphans: []*flightrec.TraceNode{{Record: orphan}},
	}
	var sb strings.Builder
	printTraceTree(&sb, tree)
	want := "trace 00000000000000ff: 3 spans, 1 ORPHANED (parent span missing — broken chain)\n" +
		formatRecord(&root) + "\n" +
		"   " + formatRecord(&child) + "\n" +
		"orphans:\n" +
		"   " + formatRecord(&orphan) + "\n"
	if sb.String() != want {
		t.Errorf("tree with orphans:\n got %q\nwant %q", sb.String(), want)
	}

	sb.Reset()
	printTraceTree(&sb, &flightrec.TraceTree{TraceID: 1})
	if want := "trace 0000000000000001: 0 spans\n(no recorded spans)\n"; sb.String() != want {
		t.Errorf("empty tree:\n got %q\nwant %q", sb.String(), want)
	}
}
