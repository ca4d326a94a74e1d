package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"

	"comfedsv"
)

// Shape fixes everything about a workload's valuation jobs except the data,
// which Generate draws per job from the workload seed.
type Shape struct {
	Model        string  `json:"model"` // API wire name: "logreg" or "mlp"
	Clients      int     `json:"clients"`
	Points       int     `json:"points_per_client"`
	Dim          int     `json:"dim"`
	Classes      int     `json:"classes"`
	TestPoints   int     `json:"test_points"`
	Hidden       int     `json:"hidden_units,omitempty"`
	Rounds       int     `json:"rounds"`
	PerRound     int     `json:"clients_per_round"`
	Permutations int     `json:"permutations"` // monte_carlo_samples; 0 = exact pipeline
	Shards       int     `json:"shards"`
	LearningRate float64 `json:"learning_rate"`
}

// Federation is one generated valuation input: the clients' datasets, the
// server's test set, and the job seed. Clients[1] is an exact copy of
// Clients[0] — the duplicate pair of the paper's Example 1, whose values a
// fair valuation makes equal.
type Federation struct {
	Clients []comfedsv.Client
	Test    comfedsv.Client
	Seed    int64
}

// Generate is a pure function of (shape, seed, job): the same arguments
// always give the same federation, and the program under test never sees
// the seed, only the generated data.
//
// Data are a Gaussian mixture: one centre per class, shared by the
// federation. Clients differ in feature noise, label skew and a fraction
// of flipped labels, so their values differ; client 0 (and its copy,
// client 1) is clean, so the duplicate pair carries a clearly non-zero
// value.
func Generate(s Shape, seed int64, job int) Federation {
	g := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15^uint64(job)))
	centers := make([][]float64, s.Classes)
	for c := range centers {
		centers[c] = make([]float64, s.Dim)
		for d := range centers[c] {
			centers[c][d] = 1.2 * g.NormFloat64()
		}
	}
	draw := func(y int, noise float64) []float64 {
		x := make([]float64, s.Dim)
		for d := range x {
			x[d] = centers[y][d] + noise*g.NormFloat64()
		}
		return x
	}

	fed := Federation{Clients: make([]comfedsv.Client, s.Clients)}
	for k := range fed.Clients {
		if k == 1 {
			fed.Clients[1] = copyClient(fed.Clients[0])
			continue
		}
		noise, flip := 0.8, 0.0
		weights := make([]float64, s.Classes)
		for c := range weights {
			weights[c] = 1
		}
		if k > 1 {
			noise = 0.6 + 1.4*g.Float64()
			flip = 0.4 * g.Float64()
			for c := range weights {
				weights[c] = 0.2 + 3*g.Float64()
			}
		}
		var c comfedsv.Client
		for i := 0; i < s.Points; i++ {
			y := categorical(g, weights)
			x := draw(y, noise)
			if g.Float64() < flip {
				y = g.IntN(s.Classes)
			}
			c.X = append(c.X, x)
			c.Y = append(c.Y, y)
		}
		fed.Clients[k] = c
	}
	for i := 0; i < s.TestPoints; i++ {
		y := i % s.Classes
		fed.Test.X = append(fed.Test.X, draw(y, 1.0))
		fed.Test.Y = append(fed.Test.Y, y)
	}
	fed.Seed = 1 + g.Int64N(math.MaxInt32)
	return fed
}

func categorical(g *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	u := g.Float64() * total
	for i, v := range w {
		if u < v {
			return i
		}
		u -= v
	}
	return len(w) - 1
}

func copyClient(c comfedsv.Client) comfedsv.Client {
	out := comfedsv.Client{Y: append([]int(nil), c.Y...)}
	for _, x := range c.X {
		out.X = append(out.X, append([]float64(nil), x...))
	}
	return out
}

// TrainOptions are the training half of a job's options: what POST
// /v1/runs receives and what identifies the shared run.
func (s Shape) TrainOptions(seed int64) comfedsv.Options {
	o := comfedsv.DefaultOptions(s.Classes)
	o.Rounds = s.Rounds
	o.ClientsPerRound = s.PerRound
	o.LearningRate = s.LearningRate
	if s.Model == "mlp" {
		o.Model = comfedsv.MLP
		o.HiddenUnits = s.Hidden
	}
	o.Seed = seed
	return o
}

// JobOptions are the effective options of the run-backed valuation job,
// as the daemon derives them from JobBody.
func (s Shape) JobOptions(seed int64) comfedsv.Options {
	o := s.TrainOptions(seed)
	o.MonteCarloSamples = s.Permutations
	o.Shards = s.Shards
	return o
}

type clientJSON struct {
	X [][]float64 `json:"x"`
	Y []int       `json:"y"`
}

type optionsJSON struct {
	NumClasses        int     `json:"num_classes,omitempty"`
	Rounds            int     `json:"rounds,omitempty"`
	ClientsPerRound   int     `json:"clients_per_round,omitempty"`
	LearningRate      float64 `json:"learning_rate,omitempty"`
	Model             string  `json:"model,omitempty"`
	HiddenUnits       int     `json:"hidden_units,omitempty"`
	MonteCarloSamples int     `json:"monte_carlo_samples,omitempty"`
	Shards            int     `json:"shards,omitempty"`
	Seed              *int64  `json:"seed,omitempty"`
}

// RunBody encodes the POST /v1/runs request for a federation.
func (s Shape) RunBody(f Federation) []byte {
	req := struct {
		Clients []clientJSON `json:"clients"`
		Test    clientJSON   `json:"test"`
		Options optionsJSON  `json:"options"`
	}{Test: clientJSON(f.Test)}
	for _, c := range f.Clients {
		req.Clients = append(req.Clients, clientJSON(c))
	}
	seed := f.Seed
	req.Options = optionsJSON{
		NumClasses:      s.Classes,
		Rounds:          s.Rounds,
		ClientsPerRound: s.PerRound,
		LearningRate:    s.LearningRate,
		Model:           s.Model,
		HiddenUnits:     s.Hidden,
		Seed:            &seed,
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain numbers and slices always encode
	}
	return b
}

// JobBody encodes the POST /v1/jobs request valuing a federation against
// its shared run.
func (s Shape) JobBody(runID string, f Federation) []byte {
	seed := f.Seed
	req := struct {
		RunID   string      `json:"run_id"`
		Options optionsJSON `json:"options"`
	}{RunID: runID, Options: optionsJSON{MonteCarloSamples: s.Permutations, Shards: s.Shards, Seed: &seed}}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}
