package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
)

// v1Trace is a small version-1 trace, the JSON document SaveRun wrote
// before the binary layout.
const v1Trace = `{"version":1,"model":{"kind":"logreg","dim":2,"classes":2},` +
	`"test":{"x":[[0.5,1]],"y":[1],"num_classes":2},` +
	`"clients":[{"x":[[1,0]],"y":[0],"num_classes":2}],` +
	`"rounds":[{"global":[0,0,0,0,0,0],"locals":[[1,0,0,0,0,0]],"selected":[0],"test_loss":0.69,"learning_rate":0.5}],` +
	`"final":[1,0,0,0,0,0]}` + "\n"

// seal appends a CRC-32C footer to a trace body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// reseal replaces b's CRC-32C footer with the checksum of the rest.
func reseal(b []byte) []byte { return seal(b[:len(b)-4]) }

// specials are the floats a byte-exact codec must carry unchanged.
var specials = []float64{math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, -1.5, 0.1, 1e300, -7e-310}

// tinyRun builds a small valid trace by hand: two clients of dim-feature
// rows, two rounds, and parameters drawn from specials.
func tinyRun(m model.Model, dim int, shape *dataset.ImageShape) *fl.Run {
	k := 0
	next := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = specials[k%len(specials)]
			k++
		}
		return v
	}
	set := func(rows int) *dataset.Dataset {
		d := &dataset.Dataset{NumClasses: 2, Shape: shape}
		for i := 0; i < rows; i++ {
			d.X = append(d.X, next(dim))
			d.Y = append(d.Y, i%2)
		}
		return d
	}
	p := m.NumParams()
	run := &fl.Run{Model: m, Test: set(3), Clients: []*dataset.Dataset{set(2), set(1)}}
	for t, sel := range [][]int{{0, 1}, {1}} {
		run.Rounds = append(run.Rounds, fl.Round{
			Global:       next(p),
			Locals:       [][]float64{next(p), next(p)},
			Selected:     sel,
			TestLoss:     specials[t],
			LearningRate: specials[t+1],
		})
	}
	run.Final = next(p)
	return run
}

func tinyLR() *fl.Run { return tinyRun(model.NewLogisticRegression(2, 2), 2, nil) }

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameRun fails unless got equals want bit for bit.
func requireSameRun(t *testing.T, want, got *fl.Run) {
	t.Helper()
	ws, _ := SpecFor(want.Model)
	gs, _ := SpecFor(got.Model)
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("model spec %+v, want %+v", gs, ws)
	}
	wsets, gsets := sets(want), sets(got)
	if len(gsets) != len(wsets) {
		t.Fatalf("%d datasets, want %d", len(gsets), len(wsets))
	}
	for i, w := range wsets {
		g := gsets[i]
		if g.NumClasses != w.NumClasses || !reflect.DeepEqual(g.Shape, w.Shape) || !reflect.DeepEqual(g.Y, w.Y) || len(g.X) != len(w.X) {
			t.Fatalf("%s differs", setName(i))
		}
		for row := range w.X {
			if !sameBits(g.X[row], w.X[row]) {
				t.Fatalf("%s row %d differs", setName(i), row)
			}
		}
	}
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	for r, w := range want.Rounds {
		g := got.Rounds[r]
		if !sameBits(g.Global, w.Global) || len(g.Locals) != len(w.Locals) ||
			!sameBits([]float64{g.TestLoss, g.LearningRate}, []float64{w.TestLoss, w.LearningRate}) ||
			!reflect.DeepEqual(g.Selected, w.Selected) {
			t.Fatalf("round %d differs", r)
		}
		for i := range w.Locals {
			if !sameBits(g.Locals[i], w.Locals[i]) {
				t.Fatalf("round %d client %d local differs", r, i)
			}
		}
	}
	if !sameBits(got.Final, want.Final) {
		t.Fatal("final model differs")
	}
}

func encode(t testing.TB, run *fl.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunRoundTripBitwise(t *testing.T) {
	shape := &dataset.ImageShape{Height: 4, Width: 5, Channels: 1}
	for _, run := range []*fl.Run{
		tinyLR(),
		tinyRun(model.NewMLP(2, 3, 2), 2, nil),
		tinyRun(model.NewCNN(*shape, 2, 2), shape.Size(), shape),
	} {
		b := encode(t, run)
		loaded, err := LoadRun(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%T: %v", run.Model, err)
		}
		requireSameRun(t, run, loaded)
		if !bytes.Equal(encode(t, loaded), b) {
			t.Fatalf("%T: re-encoding the loaded run changed the bytes", run.Model)
		}
	}
}

func TestLoadRejectsEveryTruncation(t *testing.T) {
	b := encode(t, tinyLR())
	body := b[:len(b)-4]
	for k := 0; k < len(b); k++ {
		if _, err := LoadRun(bytes.NewReader(b[:k])); err == nil {
			t.Fatalf("accepted the %d-byte prefix of a %d-byte trace", k, len(b))
		}
		// A prefix with a matching checksum must fail on its structure.
		if k < len(body) {
			if _, err := LoadRun(bytes.NewReader(seal(body[:k]))); err == nil {
				t.Fatalf("accepted the resealed %d-byte prefix of a %d-byte body", k, len(body))
			}
		}
	}
}

func TestLoadRejectsHugeCountsWithoutAllocating(t *testing.T) {
	head := func() []byte {
		b := binary.AppendUvarint(bytes.Clone(runMagic), runVersion)
		b = binary.AppendUvarint(b, uint64(len("logreg")))
		b = append(b, "logreg"...)
		for _, v := range []uint64{2, 0, 2, 0} { // dim, hidden, classes, filters
			b = binary.AppendUvarint(b, v)
		}
		return append(b, 0) // no shape
	}
	huge := uint64(1) << 40
	var rows, rounds, clients []byte
	// Test set declares 2⁴⁰ rows of dim 2.
	rows = binary.AppendUvarint(head(), 0)
	rows = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(rows, 2), huge), 2)
	rows = append(rows, make([]byte, 64)...)
	// An empty test set, then 2⁴⁰ rounds.
	rounds = binary.AppendUvarint(head(), 0)
	rounds = append(rounds, 2, 0, 0, 0)
	rounds = binary.AppendUvarint(rounds, huge)
	rounds = append(rounds, make([]byte, 64)...)
	// 2⁴⁰ clients.
	clients = binary.AppendUvarint(head(), huge)
	clients = append(clients, make([]byte, 64)...)
	for name, body := range map[string][]byte{"rows": rows, "rounds": rounds, "clients": clients} {
		in := seal(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadRun(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "remaining bytes") {
			t.Fatalf("%s: error %v, want a count-exceeds-bytes error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Fatalf("%s: decoding a %d-byte trace allocated %d bytes", name, len(in), alloc)
		}
	}
}

func TestSaveRunNamesNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*fl.Run)
		want string
	}{
		{"local", func(r *fl.Run) { r.Rounds[1].Locals[1][2] = math.NaN() }, "round 1 client 1 local holds non-finite value NaN"},
		{"feature", func(r *fl.Run) { r.Clients[0].X[1][0] = math.Inf(1) }, "client 0 row 1 holds non-finite value +Inf"},
		{"test loss", func(r *fl.Run) { r.Rounds[0].TestLoss = math.Inf(-1) }, "round 0 test loss holds non-finite value -Inf"},
		{"final", func(r *fl.Run) { r.Final[0] = math.NaN() }, "final model holds non-finite value NaN"},
	}
	for _, tc := range cases {
		run := tinyLR()
		tc.mut(run)
		err := SaveRun(&bytes.Buffer{}, run)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRejectsNonCanonical pins the canonical-encoding rules the fuzz
// property relies on: an accepted trace re-encodes to its own bytes.
func TestLoadRejectsNonCanonical(t *testing.T) {
	body := func(b []byte) []byte { return bytes.Clone(b[:len(b)-4]) }
	good := body(encode(t, tinyLR()))
	at := len(runMagic) + 1 // just past the version
	cases := map[string][]byte{
		// The kind length 6 re-encoded as the two-byte uvarint 0x86 0x00.
		"overlong uvarint": append(append(bytes.Clone(good[:at]), 0x86, 0x00), good[at+1:]...),
		// A logistic regression spec with hidden units.
		"unused spec field": func() []byte {
			b := bytes.Clone(good)
			b[at+1+len("logreg")+1] = 5 // hidden, after kind and dim
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := LoadRun(bytes.NewReader(seal(b))); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestLoadRejectsTinyCNN(t *testing.T) {
	shape := &dataset.ImageShape{Height: 4, Width: 4, Channels: 1}
	b := encode(t, tinyRun(model.NewCNN(*shape, 1, 2), shape.Size(), shape))
	// The spec's shape is the last three header bytes before the client
	// count: height, width, channels. Shrink the height to 3.
	i := bytes.Index(b, []byte{1, 4, 4, 1})
	if i < 0 {
		t.Fatal("spec shape not found")
	}
	b = bytes.Clone(b)
	b[i+1] = 3
	_, err := LoadRun(bytes.NewReader(reseal(b)))
	if err == nil || !strings.Contains(err.Error(), "smaller than") {
		t.Fatalf("error %v, want a too-small-image error", err)
	}
}

// BenchmarkRunCodec encodes and decodes a trace of perfbench's eval_mc24
// shape: an MLP with 804 parameters, 24 clients of 60 points, 400 test
// points, 20 features, 10 rounds.
func BenchmarkRunCodec(b *testing.B) {
	g := rng.New(1)
	set := func(rows int) *dataset.Dataset {
		d := &dataset.Dataset{NumClasses: 4}
		for i := 0; i < rows; i++ {
			d.X = append(d.X, g.NormalVec(20, 0, 1))
			d.Y = append(d.Y, i%4)
		}
		return d
	}
	m := model.NewMLP(20, 32, 4)
	p := m.NumParams()
	run := &fl.Run{Model: m, Test: set(400), Final: g.NormalVec(p, 0, 1)}
	for i := 0; i < 24; i++ {
		run.Clients = append(run.Clients, set(60))
	}
	for t := 0; t < 10; t++ {
		rd := fl.Round{Global: g.NormalVec(p, 0, 1), Selected: []int{t, t + 1, t + 2}, TestLoss: 1, LearningRate: 0.5}
		for i := 0; i < 24; i++ {
			rd.Locals = append(rd.Locals, g.NormalVec(p, 0, 1))
		}
		run.Rounds = append(run.Rounds, rd)
	}
	trace := encode(b, run)
	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(len(trace)))
		b.ReportAllocs()
		for b.Loop() {
			if err := SaveRun(io.Discard, run); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(trace)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeRun(trace); err != nil {
				b.Fatal(err)
			}
		}
	})
}
