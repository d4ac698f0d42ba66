package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestDemoMetricsCarrySocketLabel runs the standalone demo agent on a
// single-socket and a two-socket host and checks that the controller
// metrics are labelled by socket on both: one control path, one
// exposition shape.
func TestDemoMetricsCarrySocketLabel(t *testing.T) {
	for _, sockets := range []int{0, 2} {
		t.Run(fmt.Sprintf("sockets=%d", sockets), func(t *testing.T) {
			ob := obsWiring{reg: telemetry.NewRegistry(), journalLen: obs.DefaultJournalSize}
			if err := runDemo(context.Background(), "test-agent", nil, "", time.Millisecond, 3, sockets, ob); err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := ob.reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			want := []string{`dcat_pool_free_ways{socket="0"}`}
			if sockets > 1 {
				want = append(want, `dcat_pool_free_ways{socket="1"}`)
			}
			for _, w := range want {
				if !strings.Contains(sb.String(), w) {
					t.Errorf("metrics missing %s:\n%s", w, sb.String())
				}
			}
		})
	}
}
