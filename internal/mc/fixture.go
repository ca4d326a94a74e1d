package mc

import (
	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// UtilityShaped returns the observations of a synthetic rows×cols matrix
// of exact rank `rank`, shaped like a Monte-Carlo utility matrix: row 0,
// the full-participation round, observes every column, and each later row
// observes each of the first cols/100 columns (the small coalitions a
// round's few selected clients form) with probability 0.1, and nothing
// else. Entries come rounds outermost, the order the Monte-Carlo pipeline
// records them in. It is the production-shaped completion fixture of the
// benchmarks.
func UtilityShaped(rows, cols, rank int, seed int64) []Entry {
	g := rng.New(seed)
	w := randomFactor(rows, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	small := max(1, cols/100)
	var out []Entry
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i == 0 || (j < small && g.Float64() < 0.1) {
				out = append(out, Entry{Row: i, Col: j, Val: mat.Dot(w.Row(i), h.Row(j))})
			}
		}
	}
	return out
}
