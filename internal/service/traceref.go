package service

import (
	"fmt"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/workload"
)

// defaultRefEvents is the trace length used when a TraceRef leaves
// Events zero — the same scale the experiment suite defaults to.
const defaultRefEvents = 250_000

// maxRefEvents bounds how long a trace a single request may ask the
// store to generate. The store evicts past its byte bound but always
// keeps the newest trace, so this caps the one entry that may exceed
// the bound (16M events pack to about 132 MB).
const maxRefEvents = 16_000_000

// TraceRef names a stored workload trace instead of carrying outcomes
// inline: the branch trace of a synthetic benchmark at a given variant
// and length, read either as the global outcome stream or as one static
// branch's local substream. Because stored traces are content-addressed
// by (program, variant, events), repeated references resolve to the
// same packed trace without regeneration — the design cache and
// /v1/simulate reuse what experiments in the same process generated.
type TraceRef struct {
	// Program is a synthetic benchmark name (see workload.Suite).
	Program string
	// Variant selects the input set: "train" or "test".
	Variant string
	// Events is the dynamic branch count; 0 means defaultRefEvents.
	Events int
	// PC selects one static branch's substream; 0 means the global
	// outcome stream.
	PC uint64
}

// ResolveTrace materializes a trace reference against the service's
// store. The returned bits alias the store's immutable packed trace and
// must not be mutated.
func (s *Service) ResolveTrace(ref TraceRef) (*bitseq.Bits, error) {
	prog, err := workload.ByName(ref.Program)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	var variant workload.Variant
	switch ref.Variant {
	case "train":
		variant = workload.Train
	case "test":
		variant = workload.Test
	default:
		return nil, fmt.Errorf("%w: variant %q is not \"train\" or \"test\"", ErrInvalid, ref.Variant)
	}
	events := ref.Events
	if events == 0 {
		events = defaultRefEvents
	}
	if events < 0 || events > maxRefEvents {
		return nil, fmt.Errorf("%w: events %d outside (0, %d]", ErrInvalid, ref.Events, maxRefEvents)
	}
	packed := s.traces.Branches(prog, variant, events)
	if ref.PC == 0 {
		return packed.Outcomes(), nil
	}
	id, ok := packed.IDOf(ref.PC)
	if !ok {
		return nil, fmt.Errorf("%w: branch %#x does not execute in %s/%s",
			ErrInvalid, ref.PC, ref.Program, ref.Variant)
	}
	return packed.SubOf(id).Outcomes, nil
}
