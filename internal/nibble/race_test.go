//go:build race

package nibble

// The race detector slows the walks about twentyfold; tests whose full
// matrices already run without it trim them under -race.
func init() { raceEnabled = true }
