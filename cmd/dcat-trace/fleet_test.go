package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
)

// recvAt is the ingest time every test record carries: 12:00:05 UTC.
var recvAt = time.Date(2026, 8, 5, 12, 0, 5, 0, time.UTC).Unix()

func record(id uint64, ev obs.Event) flightrec.Record {
	return flightrec.Record{ID: id, Agent: "host-a", RecvUnix: recvAt, Event: ev}
}

func TestFormatRecord(t *testing.T) {
	cases := []struct {
		name string
		ev   obs.Event
		want string
	}{
		{
			name: "way grant on socket 1",
			ev: obs.Event{Tick: 7, Kind: obs.KindWayGrant, Workload: "web", Socket: 1,
				From: "Receiver", OldWays: 5, NewWays: 6, Reason: "IPC below target"},
			want: "#42     12:00:05 host-a/s1 tick 7    WayGrant web (Receiver) 5->6 ways: IPC below target",
		},
		{
			name: "transition on socket 0 has no suffix",
			ev: obs.Event{Tick: 12, Kind: obs.KindStateTransition, Workload: "web",
				From: "Keeper", To: "Receiver", Reason: "misses high"},
			want: "#42     12:00:05 host-a tick 12   StateTransition web Keeper->Receiver: misses high",
		},
		{
			name: "to only",
			ev:   obs.Event{Tick: 3, Kind: obs.KindStateTransition, Workload: "mload", To: "Streaming"},
			want: "#42     12:00:05 host-a tick 3    StateTransition mload (->Streaming)",
		},
		{
			name: "value delta",
			ev:   obs.Event{Tick: 9, Kind: obs.KindPhaseChange, Workload: "web", OldVal: 0.5, NewVal: 1.25},
			want: "#42     12:00:05 host-a tick 9    PhaseChange web 0.5->1.25",
		},
		{
			name: "trace id",
			ev:   obs.Event{Tick: 1, Kind: obs.KindAgentEnrolled, TraceID: 0xabc},
			want: "#42     12:00:05 host-a tick 1    AgentEnrolled [trace 0000000000000abc]",
		},
	}
	for _, tc := range cases {
		rec := record(42, tc.ev)
		if got := formatRecord(&rec); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

func TestFleetFlagsValues(t *testing.T) {
	v, err := (&fleetFlags{socket: -1}).values()
	if err != nil {
		t.Fatal(err)
	}
	if enc := v.Encode(); enc != "" {
		t.Errorf("default flags encode %q, want no parameters", enc)
	}

	ff := fleetFlags{agent: "host-a", vm: "web", kind: "WayGrant", socket: 0, n: 5,
		since: "5m", until: "2026-08-05T09:30:00Z"}
	before := time.Now()
	v, err = ff.values()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"agent": "host-a", "vm": "web", "kind": "WayGrant", "socket": "0", "n": "5",
		"until": strconv.FormatInt(time.Date(2026, 8, 5, 9, 30, 0, 0, time.UTC).Unix(), 10),
	} {
		if got := v.Get(name); got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	since, err := strconv.ParseInt(v.Get("since"), 10, 64)
	if err != nil {
		t.Fatalf("since %q is not Unix seconds: %v", v.Get("since"), err)
	}
	lo, hi := before.Add(-5*time.Minute).Unix()-1, time.Now().Add(-5*time.Minute).Unix()+1
	if since < lo || since > hi {
		t.Errorf("since = %d, want within [%d,%d]", since, lo, hi)
	}

	if _, err := (&fleetFlags{socket: -1, until: "yesterday"}).values(); err == nil || !strings.Contains(err.Error(), "-until") {
		t.Errorf("bad -until returned %v, want an error naming the flag", err)
	}
}
