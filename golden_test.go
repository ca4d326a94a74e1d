package comfedsv

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
)

// TestGoldenReportBytes pins the serialized report of one small job per
// valuation pipeline — fixed Monte-Carlo budget, adaptive (early-stopping)
// and exact — to a SHA-256 recorded from a known-good build. Every other
// byte-identity suite compares variants within one build; this one catches
// a refactor that changes the bytes of every variant at once. Go may fuse
// multiply-adds on other architectures, so the constants hold on amd64
// only.
func TestGoldenReportBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report hashes are recorded on amd64, running on %s", runtime.GOARCH)
	}
	clients, test := makeClients(t, 6, 20, 40, 313)
	base := adaptiveOptions(313)
	for _, tc := range []struct {
		name      string
		samples   int
		tolerance float64
		want      string
	}{
		{"fixed", 40, 0, "ad5f15932e77d6d4653c7dc43d64083de8a8a27ba81b6322d238cf2d3f79ceab"},
		{"adaptive", 40, 100, "76a340f2f49521aab4b57928ef9ccb8cdd56452d15b2cc9e386c65b7a7ebfc9a"},
		{"exact", 0, 0, "a7290070e7c09b5f7d10c053b576e0bb45511e750339e2bd9f47ca285bb793fe"},
	} {
		opts := base
		opts.MonteCarloSamples = tc.samples
		opts.Tolerance = tc.tolerance
		opts.Shards = 2
		rep, err := ValueCtx(context.Background(), clients, test, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.tolerance > 0 && rep.ObservationsUsed >= rep.ObservationsBudget {
			t.Fatalf("%s: used %d of budget %d — no early stop", tc.name, rep.ObservationsUsed, rep.ObservationsBudget)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s report sha256 = %s, want %s\n%s", tc.name, got, tc.want, body)
		}
	}
}
