package experiments

import (
	"fmt"
	"testing"
)

func TestComparisonUCPShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := ComparisonUCP(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tab.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Tab.Rows))
	}
	// dCat must restore the woken tenant's allocation at least as fast
	// as UCP (column 5, intervals; 0 means never).
	d, u := res.Tab.Rows[0][5], res.Tab.Rows[1][5]
	if d == "0" {
		t.Error("dCat never restored the victim's allocation")
	}
	if d > u && u != "0" {
		t.Errorf("dCat restore (%s) should not lag UCP (%s)", d, u)
	}
}

func TestComparisonHeraclesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := ComparisonHeracles(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var dcatMLR, herMLR float64
	for _, row := range res.Tab.Rows {
		var v float64
		if _, err := fmtSscan(row[2], &v); err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		switch row[0] {
		case "dcat":
			dcatMLR = v
		case "heracles":
			herMLR = v
		}
	}
	// Heracles' one shared best-effort partition leaves the MLR at the
	// streamer's mercy (measured ratio about 0.33). Isolating the
	// best-effort tenants from each other lifts it past one half, which
	// is no longer the two-class controller of §7.
	if herMLR > 0.5*dcatMLR {
		t.Errorf("inside Heracles' shared best-effort partition the MLR should keep at most half its dCat IPC: dcat %.4f vs heracles %.4f",
			dcatMLR, herMLR)
	}
}

// fmtSscan adapts fmt.Sscan for table cells.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
