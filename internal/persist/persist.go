// Package persist stores federated training runs and valuation reports,
// so that valuation can run offline from a recorded trace: a server
// records the run once (cmd/fedsim -save) and analysts recompute FedSV /
// ComFedSV / baselines later without retraining (cmd/datavalue -run). A
// run trace is one checksummed binary document (layout in trace.go); a
// report is JSON.
//
// It also holds the daemon's disk state. JobStore (reports, traces, job
// journals) and RunStore (shared traces, cell-cache sidecars) share one
// directory base of validated <id><suffix> files. Job journals
// (<id>.journal) and cell sidecars (<runID>.cells) share one append-only
// log format: one JSON object per line, each append a single fsynced
// write. Readers drop a torn trailing line (a crash mid-append) and never
// modify the file; writers truncate it back to the last newline before
// appending, so it cannot fuse with the next record. Every complete line
// must decode as exactly one record, with no unknown fields and no
// trailing data, or the read fails with the log's corrupt sentinel and
// the caller quarantines the file.
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"comfedsv/internal/dataset"
	"comfedsv/internal/model"
)

// reportVersion identifies the Report schema. It is versioned apart from
// run traces (runVersion), so a new trace layout leaves reports unchanged.
const reportVersion = 1

// ModelSpec describes how to reconstruct a model.Model.
type ModelSpec struct {
	Kind    string // "logreg", "mlp", or "cnn"
	Dim     int
	Hidden  int
	Classes int
	Filters int
	Shape   *dataset.ImageShape
}

// SpecFor derives the spec of a known model type. It returns an error for
// model implementations this package cannot round-trip.
func SpecFor(m model.Model) (ModelSpec, error) {
	switch mm := m.(type) {
	case *model.LogisticRegression:
		return ModelSpec{Kind: "logreg", Dim: mm.Dim, Classes: mm.Classes}, nil
	case *model.MLP:
		return ModelSpec{Kind: "mlp", Dim: mm.Dim, Hidden: mm.Hidden, Classes: mm.Classes}, nil
	case *model.CNN:
		shape := mm.Shape
		return ModelSpec{Kind: "cnn", Filters: mm.Filters, Classes: mm.Classes, Shape: &shape}, nil
	default:
		return ModelSpec{}, fmt.Errorf("persist: unsupported model type %T", m)
	}
}

// Build reconstructs the model described by the spec.
func (s ModelSpec) Build() (model.Model, error) {
	switch s.Kind {
	case "logreg":
		return model.NewLogisticRegression(s.Dim, s.Classes), nil
	case "mlp":
		return model.NewMLP(s.Dim, s.Hidden, s.Classes), nil
	case "cnn":
		if s.Shape == nil {
			return nil, fmt.Errorf("persist: cnn spec without shape")
		}
		if s.Shape.Height < model.CNNMinSide || s.Shape.Width < model.CNNMinSide {
			return nil, fmt.Errorf("persist: cnn image %dx%d is smaller than %dx%d",
				s.Shape.Height, s.Shape.Width, model.CNNMinSide, model.CNNMinSide)
		}
		return model.NewCNN(*s.Shape, s.Filters, s.Classes), nil
	default:
		return nil, fmt.Errorf("persist: unknown model kind %q", s.Kind)
	}
}

// Report is the JSON form of a valuation report produced by cmd/datavalue.
type Report struct {
	Version int                  `json:"version"`
	Methods map[string][]float64 `json:"methods"`
}

// SaveReport writes a valuation report as JSON.
func SaveReport(w io.Writer, rep *Report) error {
	rep.Version = reportVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
