package comfedsv

import (
	"context"
	"errors"
	"strings"
	"testing"

	"comfedsv/internal/utility"
)

// TestDivergedRunFailsAtObserve pins fail-early semantics for a diverged
// training run: the first non-finite utility cell fails the job at the
// observe stage with an error naming the round and the coalition, before
// the completion solve runs — for the fixed-budget and the exact pipeline.
func TestDivergedRunFailsAtObserve(t *testing.T) {
	clients, test := makeClients(t, 6, 20, 40, 331)
	for _, tc := range []struct {
		name    string
		model   ModelKind
		samples int
	}{
		{"fixed-lr", LogisticRegression, 40},
		{"fixed-mlp", MLP, 40},
		{"exact-lr", LogisticRegression, 0},
	} {
		opts := DefaultOptions(10)
		opts.Rounds = 5
		opts.ClientsPerRound = 2
		opts.Model = tc.model
		opts.HiddenUnits = 6
		opts.LearningRate = 1e40
		opts.MonteCarloSamples = tc.samples
		opts.Seed = 331
		var stages []string
		opts.OnProgress = func(p Progress) { stages = append(stages, p.Stage) }
		_, err := ValueCtx(context.Background(), clients, test, opts)
		var nf *utility.NonFiniteError
		if !errors.As(err, &nf) {
			t.Fatalf("%s: error %v, want a non-finite utility error", tc.name, err)
		}
		if !strings.Contains(err.Error(), "non-finite utility") || !strings.Contains(err.Error(), "coalition {") {
			t.Fatalf("%s: error %q does not name the cell", tc.name, err)
		}
		for _, s := range stages {
			if s == StageComplete || s == StageShapley {
				t.Fatalf("%s: reached stage %s after a non-finite utility (stages %v)", tc.name, s, stages)
			}
		}
		if stages[len(stages)-1] != StageObserve {
			t.Fatalf("%s: failed after stage %s, want %s", tc.name, stages[len(stages)-1], StageObserve)
		}
	}
}
