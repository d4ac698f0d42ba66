package heracles

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// TestPolicyPropose drives the feedback loop with a scripted LC IPC per
// round against a 20-way socket and a 0.5 IPC target (dead zone
// 0.475–0.525), and checks the final grants.
func TestPolicyPropose(t *testing.T) {
	repeat := func(ipc float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = ipc
		}
		return out
	}
	cases := []struct {
		name      string
		lcName    string
		workloads []string  // controller targets, in order
		ipcs      []float64 // the LC workload's IPC, one per round
		want      []int     // final grants, parallel to workloads
	}{
		{name: "starts at half the ways", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: []float64{0.51}, want: []int{10, 10}},
		{name: "grows GrowStep under SLO pressure", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: []float64{0.3}, want: []int{12, 8}},
		{name: "yields YieldStep with slack", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: []float64{0.8}, want: []int{9, 11}},
		{name: "holds inside the dead zone", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: []float64{0.51, 0.49, 0.5}, want: []int{10, 10}},
		// One violation and two slack rounds land back at the start:
		// confiscation (2 ways) outpaces yielding (1 way).
		{name: "grow and yield are asymmetric", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: []float64{0.3, 0.8, 0.8}, want: []int{10, 10}},
		{name: "MinBE floor holds", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: repeat(0.3, 21), want: []int{19, 1}},
		{name: "MinLC floor holds", lcName: "lc",
			workloads: []string{"lc", "be"}, ipcs: repeat(0.8, 21), want: []int{2, 18}},
		{name: "best-effort targets share the rest evenly", lcName: "lc",
			workloads: []string{"be1", "lc", "be2", "be3"}, ipcs: []float64{0.3}, want: []int{3, 12, 3, 2}},
		{name: "even split without the LC workload", lcName: "absent",
			workloads: []string{"lc", "be"}, ipcs: []float64{0.3, 0.3}, want: []int{10, 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPolicy(DefaultConfig(0.5), tc.lcName)
			v := &policy.View{TotalWays: 20, Workloads: make([]policy.WorkloadView, len(tc.workloads))}
			for i, name := range tc.workloads {
				v.Workloads[i].Name = name
			}
			var g policy.Grants
			for _, ipc := range tc.ipcs {
				for i := range v.Workloads {
					v.Workloads[i].IPC = ipc
				}
				p.Propose(v, &g)
				sum := 0
				for _, w := range g.Ways {
					sum += w
				}
				if sum != v.TotalWays || !g.PoolEmpty {
					t.Fatalf("grants %v sum to %d (pool empty %v), want all %d ways handed out",
						g.Ways, sum, g.PoolEmpty, v.TotalWays)
				}
			}
			if fmt.Sprint(g.Ways) != fmt.Sprint(tc.want) {
				t.Errorf("grants %v, want %v", g.Ways, tc.want)
			}
		})
	}
}
