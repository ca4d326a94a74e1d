package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

func makeRun(t *testing.T) *fl.Run {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(401), 150)
	g := rng.New(402)
	train, test := dataset.TrainTestSplit(full, 40.0/150, g)
	parts := dataset.PartitionIID(train, 4, g)
	m := model.NewMLP(full.Dim(), 5, full.NumClasses)
	cfg := fl.DefaultConfig(3, 2)
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunRoundTrip(t *testing.T) {
	run := makeRun(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClients() != run.NumClients() {
		t.Fatalf("clients %d, want %d", loaded.NumClients(), run.NumClients())
	}
	if len(loaded.Rounds) != len(run.Rounds) {
		t.Fatalf("rounds %d, want %d", len(loaded.Rounds), len(run.Rounds))
	}
	// Valuations on the loaded run match the original exactly.
	a := shapley.FedSV(utility.NewEvaluator(run))
	b := shapley.FedSV(utility.NewEvaluator(loaded))
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("FedSV after round-trip differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunRoundTripAllModels(t *testing.T) {
	shapes := dataset.ImageShape{Height: 8, Width: 8, Channels: 1}
	models := []model.Model{
		model.NewLogisticRegression(64, 10),
		model.NewMLP(64, 5, 10),
		model.NewCNN(shapes, 2, 10),
	}
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(403), 120)
	g := rng.New(404)
	train, test := dataset.TrainTestSplit(full, 40.0/120, g)
	parts := dataset.PartitionIID(train, 3, g)
	for _, m := range models {
		cfg := fl.DefaultConfig(2, 2)
		run, err := fl.TrainRun(cfg, m, parts, test)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveRun(&buf, run); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		loaded, err := LoadRun(&buf)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if loaded.Model.NumParams() != m.NumParams() {
			t.Fatalf("%T: params %d, want %d", m, loaded.Model.NumParams(), m.NumParams())
		}
		requireSameRun(t, run, loaded)
	}
}

func TestSpecForUnknownModel(t *testing.T) {
	if _, err := SpecFor(fakeModel{}); err == nil {
		t.Fatal("expected error for unknown model type")
	}
}

type fakeModel struct{}

func (fakeModel) NumParams() int                                 { return 0 }
func (fakeModel) InitParams(*rng.RNG) []float64                  { return nil }
func (fakeModel) Loss([]float64, *dataset.Dataset) float64       { return 0 }
func (fakeModel) Gradient([]float64, *dataset.Dataset) []float64 { return nil }
func (fakeModel) Predict(params []float64, x []float64) int      { return 0 }

func TestBuildUnknownKind(t *testing.T) {
	if _, err := (ModelSpec{Kind: "nope"}).Build(); err == nil {
		t.Fatal("expected error")
	}
	if _, err := (ModelSpec{Kind: "cnn"}).Build(); err == nil {
		t.Fatal("cnn without shape must fail")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"not json", func([]byte) []byte { return []byte("garbage") }, "not a run trace"},
		{"wrong version", func(b []byte) []byte {
			b = bytes.Clone(b)
			b[len(runMagic)] = 9 // the one-byte uvarint version
			return reseal(b)
		}, "unsupported format version 9"},
		{"v1 json", func([]byte) []byte { return []byte(v1Trace) }, "unsupported format version 1"},
		{"flipped payload byte", func(b []byte) []byte {
			b = bytes.Clone(b)
			b[len(b)/2] ^= 0x10
			return b
		}, "checksum mismatch"},
		{"trailing bytes", func(b []byte) []byte {
			return reseal(append(bytes.Clone(b[:len(b)-4]), 0, 0, 0, 0, 0))
		}, "after its float block"},
		{"non-finite final", func(b []byte) []byte {
			b = bytes.Clone(b)
			binary.LittleEndian.PutUint64(b[len(b)-12:], math.Float64bits(math.NaN()))
			return reseal(b)
		}, "final model holds non-finite value NaN"},
	}
	run := makeRun(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadRun(bytes.NewReader(tc.mut(good)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestLoadValidatesShapes(t *testing.T) {
	run := makeRun(t)
	// Truncate a local parameter vector: loading must fail.
	run.Rounds[1].Locals[0] = run.Rounds[1].Locals[0][:3]
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(&buf); err == nil {
		t.Fatal("expected parameter-length validation error")
	}
}

func TestLoadValidatesSelection(t *testing.T) {
	run := makeRun(t)
	run.Rounds[0].Selected = []int{99}
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(&buf); err == nil {
		t.Fatal("expected selection-index validation error")
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{Methods: map[string][]float64{
		"fedsv":    {1, 2, 3},
		"comfedsv": {1.1, 2.2, 2.9},
	}}
	var buf bytes.Buffer
	if err := SaveReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Methods) != 2 || loaded.Methods["fedsv"][1] != 2 {
		t.Fatalf("report round-trip lost data: %+v", loaded)
	}
}

func TestLoadReportRejectsGarbage(t *testing.T) {
	if _, err := LoadReport(strings.NewReader("{")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := LoadReport(strings.NewReader(`{"version":3}`)); err == nil {
		t.Fatal("expected version error")
	}
}

// LoadReport reads a valuation report written by SaveReport.
func LoadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("persist: decoding report: %w", err)
	}
	if rep.Version != reportVersion {
		return nil, fmt.Errorf("persist: unsupported report version %d", rep.Version)
	}
	return &rep, nil
}
