package transport

import (
	"context"
	"fmt"

	"pinot/internal/query"
)

// StreamHandler executes one query, emitting per-segment intermediates in
// sequence order as they become ready and returning the response trailer.
// The server package implements it; TCPQueryServer drives it, writing each
// intermediate as a segment frame, under a context cancelled on hang-up.
type StreamHandler interface {
	ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error)
}

// StreamMerger incrementally folds the segment frames of one streamed
// response into a single intermediate. The engine emits frames in sequence
// order and they cross one ordered connection, so a sequence number other
// than the next one — a duplicate, a gap, a reordering — is a corrupt
// stream and refused. It is not safe for concurrent use; one response
// stream has one reader.
type StreamMerger struct {
	merged *query.Intermediate
	next   int
}

// NewStreamMerger returns an empty merger.
func NewStreamMerger() *StreamMerger { return &StreamMerger{} }

// Add folds the next segment frame in.
func (m *StreamMerger) Add(sf *SegmentFrame) error {
	switch {
	case sf.Result == nil:
		return fmt.Errorf("transport: segment frame %d has no result", sf.Seq)
	case 0 <= sf.Seq && sf.Seq < m.next:
		return fmt.Errorf("transport: duplicate segment frame seq %d", sf.Seq)
	case sf.Seq != m.next:
		return fmt.Errorf("transport: segment frame seq %d out of order, want %d", sf.Seq, m.next)
	}
	m.next++
	if m.merged == nil {
		m.merged = sf.Result
		return nil
	}
	return m.merged.Merge(sf.Result)
}

// Finish validates the trailer against what arrived — the trailer's frame
// count makes truncation and loss detectable — merges the trailer stats and
// returns the response.
func (m *StreamMerger) Finish(ff *FinalFrame) (*query.Intermediate, error) {
	if m.next != ff.Frames {
		return nil, fmt.Errorf("transport: stream truncated: %d segment frames arrived, trailer says %d", m.next, ff.Frames)
	}
	if m.merged == nil {
		return nil, fmt.Errorf("transport: stream carried no result")
	}
	m.merged.Stats.Merge(ff.Stats)
	return m.merged, nil
}
