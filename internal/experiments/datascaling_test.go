package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestDataScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling in short mode")
	}
	rows, err := DataScaling(1, []int{20000, 1000000})
	if err != nil {
		t.Fatalf("DataScaling: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The optimal approach's scan cost grows with the table. The claim is
	// asserted on the scan phase: plan search, whose cost does not depend
	// on the table, dominates the total latency, and its run-to-run noise
	// can exceed the whole scan term. Rows scanned is the deterministic
	// co-assertion: the exact scan reads every row. Holistic stays
	// immediate.
	if rows[1].OptimalScanTime <= rows[0].OptimalScanTime {
		t.Errorf("optimal scan time should grow: %v then %v",
			rows[0].OptimalScanTime, rows[1].OptimalScanTime)
	}
	for _, r := range rows {
		if r.OptimalRowsScanned != int64(r.Rows) {
			t.Errorf("%d rows: optimal scanned %d rows, want the whole table",
				r.Rows, r.OptimalRowsScanned)
		}
		if r.HolisticLatency >= r.OptimalLatency {
			t.Errorf("%d rows: holistic %v should beat optimal %v",
				r.Rows, r.HolisticLatency, r.OptimalLatency)
		}
	}
	var buf bytes.Buffer
	PrintDataScaling(&buf, rows)
	if !strings.Contains(buf.String(), "Scaling") {
		t.Error("printout malformed")
	}
}
