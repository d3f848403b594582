// Package fsmpredict is the public API of the FSM-predictor design
// library, a reproduction of "Automated Design of Finite State Machine
// Predictors" (Sherwood & Calder, ISCA 2001).
//
// The library turns a behavioural trace of binary outcomes — branch
// directions, value-prediction correctness, anything predictable — into
// a small Moore-machine predictor:
//
//	design, err := fsmpredict.DesignFromTrace("0000 1000 1011 1101 1110 1111",
//	    fsmpredict.Options{Order: 2})
//	m := design.Machine
//	r := m.NewRunner()
//	r.Predict()      // prediction of the next outcome
//	r.Update(true)   // learn the actual outcome
//
// The design flow follows the paper exactly: an Nth-order Markov model of
// the trace (§4.2), pattern-set selection with don't cares (§4.3),
// two-level logic minimization (§4.4), a regular expression for the
// predict-1 language (§4.5), Thompson construction and subset
// construction (§4.6), Hopcroft minimization, start-state reduction
// (§4.7), and finally VHDL generation with area estimation (§4.8).
//
// The command-line tools under cmd/ and the runnable programs under
// examples/ exercise the complete evaluation of the paper: custom branch
// predictors for embedded processors and confidence estimation for value
// prediction. See DESIGN.md for the experiment index.
package fsmpredict

import (
	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/core"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/service"
	"fsmpredict/internal/vhdl"
)

// Options configures a design run; see core.Options for field semantics.
// The zero value plus an Order is the paper's default setup (bias
// threshold 1/2, 1% don't-care budget, start-state reduction on).
type Options = core.Options

// Design is the full record of one design-flow run, including the Markov
// model, pattern sets, minimized cover, regular expression, intermediate
// machine sizes and the final Machine.
type Design = core.Design

// Machine is the generated Moore-machine predictor.
type Machine = fsm.Machine

// Runner is the mutable per-instance execution state of a Machine.
type Runner = fsm.Runner

// Cube is a 0/1/x pattern over a fixed-width history window.
type Cube = bitseq.Cube

// MarkovModel is an Nth-order model of a binary trace.
type MarkovModel = markov.Model

// Synthesis is the gate-level synthesis result of a Machine.
type Synthesis = vhdl.Synthesis

// Bits is a packed bit sequence — the zero-copy trace representation
// every simulation kernel consumes. Machine.SimulateBits replays one
// through the byte-blocked superstep kernel without expanding to
// []bool.
type Bits = bitseq.Bits

// ParseBits packs a textual 0/1 trace (whitespace and underscores
// ignored) for the packed simulation API.
func ParseBits(trace string) (*Bits, error) { return bitseq.FromString(trace) }

// DesignFromTrace runs the automated design flow of §4 on a trace written
// as a string of '0' and '1' characters (whitespace and underscores are
// ignored).
func DesignFromTrace(trace string, opt Options) (*Design, error) {
	b, err := bitseq.FromString(trace)
	if err != nil {
		return nil, err
	}
	return core.FromTrace(b, opt)
}

// DesignFromBools runs the design flow on a boolean outcome sequence.
func DesignFromBools(trace []bool, opt Options) (*Design, error) {
	return core.FromBools(trace, opt)
}

// DesignFromModel runs the design flow on a prebuilt Markov model, e.g.
// one aggregated across a whole application suite (§6).
func DesignFromModel(m *MarkovModel, opt Options) (*Design, error) {
	return core.FromModel(m, opt)
}

// NewModel returns an empty Nth-order Markov model; feed it with
// AddBools/Observe and pass it to DesignFromModel.
func NewModel(order int) *MarkovModel { return markov.New(order) }

// GenerateVHDL renders the machine as a synthesizable VHDL entity (§4.8).
func GenerateVHDL(m *Machine) (string, error) { return vhdl.Generate(m) }

// Synthesize runs the gate-level synthesis model, returning the logic
// covers, gate count and estimated area of the machine.
func Synthesize(m *Machine) (*Synthesis, error) { return vhdl.Synthesize(m) }

// SynthesizeBest explores the implemented state encodings (binary, Gray,
// output-encoded) and returns the cheapest synthesis.
func SynthesizeBest(m *Machine) (*Synthesis, error) { return vhdl.SynthesizeBest(m) }

// GenerateTestbench renders a self-checking VHDL testbench that replays
// the outcome trace through the generated entity and asserts the
// hardware's predictions match the model's.
func GenerateTestbench(m *Machine, trace []bool, maxVectors int) (string, error) {
	return vhdl.GenerateTestbench(m, trace, maxVectors)
}

// EstimateArea returns the machine's estimated area in gate equivalents.
func EstimateArea(m *Machine) (float64, error) { return vhdl.EstimateArea(m) }

// Equal reports whether two machines make identical predictions on every
// input sequence.
func Equal(a, b *Machine) bool { return fsm.Equal(a, b) }

// ParseCube parses an oldest-first 0/1/x pattern such as "0x1x".
func ParseCube(s string) (Cube, error) { return bitseq.ParseCube(s) }

// MachineForCover builds the predictor recognizing the given same-width
// patterns directly (without a trace), using the verified fast path.
func MachineForCover(cover []Cube, order int) (*Machine, error) {
	return core.DirectMachine(cover, order)
}

// Service is a concurrent design server around the §4 flow: a
// content-addressed result cache, deduplication of identical in-flight
// requests, and a bounded worker pool that sheds load with
// service.ErrOverloaded when saturated. cmd/fsmserved exposes one over
// HTTP.
type Service = service.Service

// ServiceConfig sizes a Service; the zero value uses GOMAXPROCS
// workers, a queue of 8× workers, and a 1024-entry cache.
type ServiceConfig = service.Config

// ServiceResult is the immutable outcome of one served design: machine
// JSON, VHDL, area, and pipeline statistics.
type ServiceResult = service.Result

// ErrOverloaded is returned by a saturated Service instead of queueing
// without bound.
var ErrOverloaded = service.ErrOverloaded

// NewService starts a design service. Callers must Close it when done:
//
//	svc := fsmpredict.NewService(fsmpredict.ServiceConfig{})
//	defer svc.Close()
//	res, cached, err := svc.DesignString(ctx, "0000 1000 1011 ...", fsmpredict.Options{Order: 2})
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }
