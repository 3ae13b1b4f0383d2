// Benchmarks regenerating the paper's results: one sub-benchmark per
// entry of harness.Experiments (E1..E11). Each runs the experiment at
// Default scale, reports the numeric cells of the table's last row as
// custom metrics under their header names, and logs the full table
// (visible in `go test -bench` output).
package dexpander_test

import (
	"testing"

	"dexpander/internal/harness"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var tbl *harness.Table
			for i := 0; i < b.N; i++ {
				var err error
				tbl, err = e.Run(harness.Default, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + tbl.String())
			for name, v := range tbl.Metrics() {
				b.ReportMetric(v, name)
			}
		})
	}
}
