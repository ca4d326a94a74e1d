package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
)

// A run trace (SaveRun/LoadRun) is one binary document:
//
//	magic    8 bytes, "CFSVRUN\n"
//	version  uvarint, runVersion
//	header   uvarints unless noted:
//	         model spec: len(kind), kind, dim, hidden, classes, filters, shape
//	         client count n, then the test set and the n client sets, each:
//	           classes, rows, dim, shape, one label per row
//	         round count, then per round: len(global), len(locals), each
//	           local's length, len(selected), selected, and the test loss
//	           and learning rate as 8-byte little-endian float64s
//	         len(final)
//	floats   little-endian float64s: every set's features row by row (test
//	         set first), then each round's global and locals, then final
//	footer   4-byte little-endian CRC-32C of everything before it
//
// A shape is a byte, 0 (none) or 1, followed for 1 by height, width and
// channels. Every float is finite. A trace LoadRun accepts is canonical:
// SaveRun of the decoded run reproduces it byte for byte.

// runVersion identifies the trace layout. Version 1 was a JSON document.
const runVersion = 2

var (
	runMagic   = []byte("CFSVRUN\n")
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// maxDims bounds the product of a decoded spec's or shape's dimensions,
// each plus one, so no size the model derives from them overflows an int.
const maxDims = 1 << 48

// minRoundHeader is the fewest header bytes a round takes: three counts
// and two float64s.
const minRoundHeader = 3 + 2*8

// SaveRun writes the run as a binary trace. It fails, naming the value,
// if the run holds a non-finite float, and on datasets that do not
// validate.
func SaveRun(w io.Writer, run *fl.Run) error {
	b, err := encodeRun(run)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// LoadRun reads a trace written by SaveRun. It verifies the checksum, and
// checks every count against the bytes present before allocating, every
// dataset, parameter length and selection index, and that every float is
// finite. A version-1 (JSON) trace fails with an unsupported-version error.
func LoadRun(r io.Reader) (*fl.Run, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading run: %w", err)
	}
	return decodeRun(b)
}

// sets returns the run's datasets in trace order: test set, then clients.
func sets(run *fl.Run) []*dataset.Dataset {
	return append([]*dataset.Dataset{run.Test}, run.Clients...)
}

// setName names the i-th dataset of sets in errors.
func setName(i int) string {
	if i == 0 {
		return "test set"
	}
	return fmt.Sprintf("client %d", i-1)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// firstNonFinite returns the index of the first NaN or infinite value in
// v, or -1.
func firstNonFinite(v []float64) int {
	for i, x := range v {
		if !finite(x) {
			return i
		}
	}
	return -1
}

func nonFiniteErr(where string, v float64) error {
	return fmt.Errorf("persist: %s holds non-finite value %v", where, v)
}

// scalarsErr names round t's test loss or learning rate if it is not
// finite.
func scalarsErr(t int, rd fl.Round) error {
	switch {
	case !finite(rd.TestLoss):
		return nonFiniteErr(fmt.Sprintf("round %d test loss", t), rd.TestLoss)
	case !finite(rd.LearningRate):
		return nonFiniteErr(fmt.Sprintf("round %d learning rate", t), rd.LearningRate)
	}
	return nil
}

// checkFinite names the run's first non-finite value in training order:
// features, then each round's global, locals, test loss and learning
// rate, then the final model.
func checkFinite(run *fl.Run, ds []*dataset.Dataset) error {
	for i, d := range ds {
		for row, x := range d.X {
			if j := firstNonFinite(x); j >= 0 {
				return nonFiniteErr(fmt.Sprintf("%s row %d", setName(i), row), x[j])
			}
		}
	}
	for t, rd := range run.Rounds {
		if j := firstNonFinite(rd.Global); j >= 0 {
			return nonFiniteErr(fmt.Sprintf("round %d global", t), rd.Global[j])
		}
		for i, l := range rd.Locals {
			if j := firstNonFinite(l); j >= 0 {
				return nonFiniteErr(fmt.Sprintf("round %d client %d local", t, i), l[j])
			}
		}
		if err := scalarsErr(t, rd); err != nil {
			return err
		}
	}
	if j := firstNonFinite(run.Final); j >= 0 {
		return nonFiniteErr("final model", run.Final[j])
	}
	return nil
}

// traceWriter appends a trace's fields; err holds the first value that
// could not be encoded.
type traceWriter struct {
	b   []byte
	err error
}

func (w *traceWriter) uint(v int) {
	if v < 0 && w.err == nil {
		w.err = fmt.Errorf("persist: cannot encode negative integer %d", v)
	}
	w.b = binary.AppendUvarint(w.b, uint64(v))
}

func (w *traceWriter) float(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *traceWriter) floats(v []float64) {
	for _, x := range v {
		w.float(x)
	}
}

func (w *traceWriter) shape(s *dataset.ImageShape) {
	if s == nil {
		w.b = append(w.b, 0)
		return
	}
	w.b = append(w.b, 1)
	w.uint(s.Height)
	w.uint(s.Width)
	w.uint(s.Channels)
}

func encodeRun(run *fl.Run) ([]byte, error) {
	spec, err := SpecFor(run.Model)
	if err != nil {
		return nil, err
	}
	ds := sets(run)
	for i, d := range ds {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("persist: %s: invalid dataset: %w", setName(i), err)
		}
	}
	if err := checkFinite(run, ds); err != nil {
		return nil, err
	}
	w := traceWriter{b: slices.Clone(runMagic)}
	w.uint(runVersion)
	w.uint(len(spec.Kind))
	w.b = append(w.b, spec.Kind...)
	w.uint(spec.Dim)
	w.uint(spec.Hidden)
	w.uint(spec.Classes)
	w.uint(spec.Filters)
	w.shape(spec.Shape)
	w.uint(len(run.Clients))
	floats := len(run.Final)
	for _, d := range ds {
		w.uint(d.NumClasses)
		w.uint(d.Len())
		w.uint(d.Dim())
		w.shape(d.Shape)
		for _, y := range d.Y {
			w.uint(y)
		}
		floats += d.Len() * d.Dim()
	}
	w.uint(len(run.Rounds))
	for _, rd := range run.Rounds {
		w.uint(len(rd.Global))
		w.uint(len(rd.Locals))
		floats += len(rd.Global)
		for _, l := range rd.Locals {
			w.uint(len(l))
			floats += len(l)
		}
		w.uint(len(rd.Selected))
		for _, s := range rd.Selected {
			w.uint(s)
		}
		w.float(rd.TestLoss)
		w.float(rd.LearningRate)
	}
	w.uint(len(run.Final))
	if w.err != nil {
		return nil, w.err
	}
	w.b = slices.Grow(w.b, 8*floats+4)
	for _, d := range ds {
		for _, x := range d.X {
			w.floats(x)
		}
	}
	for _, rd := range run.Rounds {
		w.floats(rd.Global)
		for _, l := range rd.Locals {
			w.floats(l)
		}
	}
	w.floats(run.Final)
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, castagnoli)), nil
}

// traceReader consumes a trace's fields. The first failure sticks in err;
// later reads return zero values.
type traceReader struct {
	b    []byte
	err  error
	need int // floats the header has declared so far
}

func (r *traceReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("persist: "+format, args...)
	}
}

// uvarint reads a minimally encoded uvarint.
func (r *traceReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("run trace truncated")
	case n < 0:
		r.fail("run trace integer overflows 64 bits")
	case n > 1 && r.b[n-1] == 0:
		r.fail("run trace integer is not minimally encoded")
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// int reads a uvarint no larger than limit.
func (r *traceReader) int(limit int, what string) int {
	v := r.uvarint()
	if v > uint64(limit) {
		r.fail("run trace %s %d exceeds %d", what, v, limit)
		return 0
	}
	return int(v)
}

// count reads the number of items of a list whose items take at least
// unit bytes each further on, so that no count exceeds what the bytes
// left can hold.
func (r *traceReader) count(what string, unit int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/unit) {
		r.fail("run trace declares %d %s in %d remaining bytes", v, what, len(r.b))
		return 0
	}
	return int(v)
}

// reserve adds k floats to the block after the header. The header is
// still being read, so the bytes left bound the block from above.
func (r *traceReader) reserve(k int) {
	if r.err == nil && k > len(r.b)/8-r.need {
		r.fail("run trace declares more floats than its %d remaining bytes hold", len(r.b))
		return
	}
	r.need += k
}

func (r *traceReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("run trace truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *traceReader) shape() *dataset.ImageShape {
	if r.err != nil {
		return nil
	}
	if len(r.b) == 0 {
		r.fail("run trace truncated")
		return nil
	}
	flag := r.b[0]
	r.b = r.b[1:]
	switch flag {
	case 0:
		return nil
	case 1:
		s := &dataset.ImageShape{Height: r.int(maxDims, "shape"), Width: r.int(maxDims, "shape"), Channels: r.int(maxDims, "shape")}
		if !dimsFit(s.Height, s.Width, s.Channels) {
			r.fail("run trace shape %+v too large", *s)
		}
		return s
	default:
		r.fail("run trace shape flag %d", flag)
		return nil
	}
}

// floats decodes the next len(dst) floats of the block into dst and
// returns the index of the first non-finite one, or -1.
func (r *traceReader) floats(dst []float64) int {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*len(dst):]
	return firstNonFinite(dst)
}

// dimsFit reports whether the product of each value plus one stays within
// maxDims. Every value is at most maxDims, so adding one cannot overflow.
func dimsFit(vals ...int) bool {
	p := uint64(1)
	for _, v := range vals {
		hi, lo := bits.Mul64(p, uint64(v)+1)
		if hi != 0 || lo > maxDims {
			return false
		}
		p = lo
	}
	return true
}

func versionErr(v uint64) error {
	return fmt.Errorf("persist: unsupported format version %d (want %d)", v, runVersion)
}

// jsonVersion reads the version of a version-1 trace, a JSON document
// that opens with its version field.
func jsonVersion(b []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"version":`))
	if !ok {
		return 0, false
	}
	digits := 0
	for digits < len(rest) && digits < 20 && '0' <= rest[digits] && rest[digits] <= '9' {
		digits++
	}
	v, err := strconv.ParseUint(string(rest[:digits]), 10, 64)
	return v, err == nil
}

// setHeader is a dataset as the header declares it; its features are
// decoded from the float block.
type setHeader struct {
	d         *dataset.Dataset
	rows, dim int
}

func decodeRun(b []byte) (*fl.Run, error) {
	if !bytes.HasPrefix(b, runMagic) {
		if v, ok := jsonVersion(b); ok {
			return nil, versionErr(v)
		}
		return nil, errors.New("persist: not a run trace")
	}
	if len(b) < len(runMagic)+4 {
		return nil, errors.New("persist: run trace truncated")
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, errors.New("persist: run trace checksum mismatch")
	}
	r := &traceReader{b: body[len(runMagic):]}
	if v := r.uvarint(); r.err == nil && v != runVersion {
		return nil, versionErr(v)
	}

	var spec ModelSpec
	kind := r.count("model kind bytes", 1)
	if r.err == nil {
		spec.Kind = string(r.b[:kind])
		r.b = r.b[kind:]
	}
	spec.Dim = r.int(maxDims, "model dim")
	spec.Hidden = r.int(maxDims, "model hidden")
	spec.Classes = r.int(maxDims, "model classes")
	spec.Filters = r.int(maxDims, "model filters")
	spec.Shape = r.shape()
	if r.err != nil {
		return nil, r.err
	}
	dims := []int{spec.Dim, spec.Hidden, spec.Classes, spec.Filters}
	if spec.Shape != nil {
		dims = append(dims, spec.Shape.Height, spec.Shape.Width, spec.Shape.Channels)
	}
	if !dimsFit(dims...) {
		return nil, fmt.Errorf("persist: model spec %+v too large", spec)
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if canon, _ := SpecFor(m); !reflect.DeepEqual(canon, spec) {
		return nil, fmt.Errorf("persist: model spec sets fields a %s model does not use", spec.Kind)
	}
	p := m.NumParams()
	input := spec.Dim
	if spec.Shape != nil {
		input = spec.Shape.Size()
	}

	n := r.count("clients", 4) // a set's header takes at least 4 bytes
	hs := make([]setHeader, n+1)
	for i := range hs {
		h := &hs[i]
		h.d = &dataset.Dataset{NumClasses: r.int(math.MaxInt, "class count")}
		h.rows = r.count("rows", 1)
		h.dim = r.int(math.MaxInt, "dim")
		h.d.Shape = r.shape()
		if r.err != nil {
			return nil, r.err
		}
		switch {
		case h.rows == 0 && h.dim != 0:
			return nil, fmt.Errorf("persist: %s has no rows but dim %d", setName(i), h.dim)
		case h.rows > 0 && h.dim != input:
			return nil, fmt.Errorf("persist: %s has dim %d, model wants %d", setName(i), h.dim, input)
		case h.d.NumClasses > spec.Classes:
			return nil, fmt.Errorf("persist: %s has %d classes, model has %d", setName(i), h.d.NumClasses, spec.Classes)
		}
		if h.dim > 0 && h.rows > len(r.b)/8/h.dim {
			return nil, fmt.Errorf("persist: %s declares %d×%d features in %d remaining bytes", setName(i), h.rows, h.dim, len(r.b))
		}
		r.reserve(h.rows * h.dim)
		h.d.Y = make([]int, h.rows)
		for j := range h.d.Y {
			h.d.Y[j] = r.int(math.MaxInt, "label")
		}
	}

	rounds := make([]fl.Round, r.count("rounds", minRoundHeader))
	if r.err == nil && len(rounds) == 0 {
		return nil, errors.New("persist: run has no rounds")
	}
	for t := range rounds {
		rd := &rounds[t]
		if g := r.count("global parameters", 8); r.err == nil && g != p {
			return nil, fmt.Errorf("persist: round %d global has %d params, want %d", t, g, p)
		}
		r.reserve(p)
		if l := r.count("locals", 1); r.err == nil && l != n {
			return nil, fmt.Errorf("persist: round %d has %d locals, want %d", t, l, n)
		}
		for i := 0; i < n; i++ {
			if l := r.count("local parameters", 8); r.err == nil && l != p {
				return nil, fmt.Errorf("persist: round %d client %d has %d params, want %d", t, i, l, p)
			}
			r.reserve(p)
		}
		rd.Selected = make([]int, r.count("selections", 1))
		for j := range rd.Selected {
			s := r.int(math.MaxInt, "selection")
			if r.err == nil && s >= n {
				return nil, fmt.Errorf("persist: round %d selects client %d of %d", t, s, n)
			}
			rd.Selected[j] = s
		}
		rd.TestLoss, rd.LearningRate = r.float(), r.float()
		if r.err != nil {
			return nil, r.err
		}
		if err := scalarsErr(t, *rd); err != nil {
			return nil, err
		}
	}
	if f := r.count("final parameters", 8); r.err == nil && f != p {
		return nil, fmt.Errorf("persist: final model has %d params, model wants %d", f, p)
	}
	r.reserve(p)
	if r.err != nil {
		return nil, r.err
	}
	if extra := len(r.b) - 8*r.need; extra != 0 {
		return nil, fmt.Errorf("persist: run trace has %d bytes after its float block", extra)
	}

	// The float block: features, each round's global and locals, final.
	ds := make([]*dataset.Dataset, len(hs))
	for i, h := range hs {
		x := make([]float64, h.rows*h.dim)
		if j := r.floats(x); j >= 0 {
			return nil, nonFiniteErr(fmt.Sprintf("%s row %d", setName(i), j/h.dim), x[j])
		}
		h.d.X = make([][]float64, h.rows)
		for row := range h.d.X {
			h.d.X[row] = x[row*h.dim : (row+1)*h.dim : (row+1)*h.dim]
		}
		if err := h.d.Validate(); err != nil {
			return nil, fmt.Errorf("persist: %s: invalid dataset: %w", setName(i), err)
		}
		ds[i] = h.d
	}
	for t := range rounds {
		rd := &rounds[t]
		// One allocation backs the round's global and all its locals.
		block := make([]float64, (n+1)*p)
		rd.Global = block[:p:p]
		if j := r.floats(rd.Global); j >= 0 {
			return nil, nonFiniteErr(fmt.Sprintf("round %d global", t), rd.Global[j])
		}
		rd.Locals = make([][]float64, n)
		for i := range rd.Locals {
			l := block[(i+1)*p : (i+2)*p : (i+2)*p]
			if j := r.floats(l); j >= 0 {
				return nil, nonFiniteErr(fmt.Sprintf("round %d client %d local", t, i), l[j])
			}
			rd.Locals[i] = l
		}
	}
	final := make([]float64, p)
	if j := r.floats(final); j >= 0 {
		return nil, nonFiniteErr("final model", final[j])
	}
	return &fl.Run{Model: m, Test: ds[0], Clients: ds[1:], Rounds: rounds, Final: final}, nil
}
