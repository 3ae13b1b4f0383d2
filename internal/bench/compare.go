package bench

import "fmt"

// Problem is one baseline-comparison finding.
type Problem struct {
	// Cell identifies the (scenario, params, algorithm) triple.
	Cell string
	// Kind is "output-mismatch", "error", "missing-cell", or
	// "time-regression".
	Kind string
	// Detail is the human-readable explanation.
	Detail string
	// Hard problems fail the build regardless of tolerance (output
	// mismatches and errors); soft problems are timing regressions.
	Hard bool
}

func (p Problem) String() string {
	sev := "soft"
	if p.Hard {
		sev = "HARD"
	}
	return fmt.Sprintf("[%s] %s %s: %s", sev, p.Kind, p.Cell, p.Detail)
}

// CompareOptions tunes the baseline diff.
type CompareOptions struct {
	// Tolerance is the allowed relative wall-time growth (0.20 = +20%).
	Tolerance float64
	// MinWallNS ignores timing regressions on cells faster than this in
	// both reports — sub-threshold cells are scheduler noise, not signal.
	MinWallNS int64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Tolerance == 0 {
		o.Tolerance = 0.20
	}
	if o.MinWallNS == 0 {
		o.MinWallNS = 10_000_000 // 10ms
	}
	return o
}

// Compare diffs cur against base. Output mismatches (different triangle
// counts, checksums, rounds, CONGEST rounds, or messages on the same
// deterministic cell and seed) and errored/missing cells are hard problems; wall-time
// regressions beyond the tolerance are soft problems. Wall times are
// normalized by each report's calibration constant, so a baseline
// recorded on one machine transfers to differently-sized CI hardware.
func Compare(cur, base *Report, opt CompareOptions) []Problem {
	opt = opt.withDefaults()
	var problems []Problem
	curBy := make(map[string]Cell, len(cur.Cells))
	for _, c := range cur.Cells {
		curBy[c.Key()] = c
	}
	// Errored current cells are hard problems even when the baseline does
	// not know the cell yet (a new scenario/algorithm whose kernel is
	// broken must not pass just because the baseline was not refreshed).
	baseKeys := make(map[string]bool, len(base.Cells))
	for _, b := range base.Cells {
		baseKeys[b.Key()] = true
	}
	for _, c := range cur.Cells {
		if c.Error != "" && !baseKeys[c.Key()] {
			problems = append(problems, Problem{
				Cell: c.Key(), Kind: "error", Hard: true, Detail: c.Error,
			})
		}
	}
	sameSeed := cur.Seed == base.Seed
	for _, b := range base.Cells {
		c, ok := curBy[b.Key()]
		if !ok {
			problems = append(problems, Problem{
				Cell: b.Key(), Kind: "missing-cell", Hard: true,
				Detail: "cell present in baseline but absent from the current run",
			})
			continue
		}
		if c.Error != "" {
			problems = append(problems, Problem{
				Cell: c.Key(), Kind: "error", Hard: true, Detail: c.Error,
			})
			continue
		}
		if b.Error != "" {
			continue // baseline itself was broken; nothing to compare
		}
		if sameSeed {
			if c.Triangles != b.Triangles || c.Checksum != b.Checksum {
				problems = append(problems, Problem{
					Cell: c.Key(), Kind: "output-mismatch", Hard: true,
					Detail: fmt.Sprintf("triangles %d->%d checksum %s->%s",
						b.Triangles, c.Triangles, b.Checksum, c.Checksum),
				})
				continue
			}
			if c.Rounds != b.Rounds || c.CongestRounds != b.CongestRounds || c.Messages != b.Messages {
				problems = append(problems, Problem{
					Cell: c.Key(), Kind: "output-mismatch", Hard: true,
					Detail: fmt.Sprintf("rounds %d->%d congest_rounds %d->%d messages %d->%d",
						b.Rounds, c.Rounds, b.CongestRounds, c.CongestRounds, b.Messages, c.Messages),
				})
				continue
			}
		}
		if c.WallNS < opt.MinWallNS && b.WallNS < opt.MinWallNS {
			continue
		}
		if cur.CalibNS <= 0 || base.CalibNS <= 0 {
			continue
		}
		curRatio := float64(c.WallNS) / float64(cur.CalibNS)
		baseRatio := float64(b.WallNS) / float64(base.CalibNS)
		if baseRatio > 0 && curRatio > baseRatio*(1+opt.Tolerance) {
			problems = append(problems, Problem{
				Cell: c.Key(), Kind: "time-regression",
				Detail: fmt.Sprintf("normalized wall %.3f -> %.3f (+%.0f%%, tolerance %.0f%%)",
					baseRatio, curRatio, (curRatio/baseRatio-1)*100, opt.Tolerance*100),
			})
		}
	}
	return problems
}
