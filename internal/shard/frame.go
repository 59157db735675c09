package shard

// Length-delimited JSON framing for completion streams. A completion
// body is a sequence of frames — record batches in trial order, then
// the shard's tally delta, then (when telemetry is on) the canonical
// registry snapshot, then an end marker — so a worker can stream a
// large shard without materializing one giant JSON document, and the
// coordinator can reject a truncated body (no end frame) atomically
// instead of folding half a shard.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/obs"
)

// maxFrameBytes bounds one frame so a corrupt length prefix cannot
// drive an allocation by the advertised size.
const maxFrameBytes = 32 << 20

// recordsPerFrame is the record-batch granule. 256 records is a few
// tens of KB of JSON — small enough to stream, large enough that the
// framing overhead vanishes.
const recordsPerFrame = 256

// writeFrame writes one length-prefixed JSON message.
func writeFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(b) > maxFrameBytes {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", len(b), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed JSON message into v. It returns
// io.EOF only on a clean boundary (no bytes read).
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("shard: frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("shard: frame body: %w", err)
	}
	return json.Unmarshal(buf, v)
}

// completionFrame is one message of a completion stream. Exactly one
// field is set per frame.
type completionFrame struct {
	Records []fault.TrialRecord `json:"records,omitempty"`
	Tally   *fault.TallyDelta   `json:"tally,omitempty"`
	Metrics *obs.RegistryWire   `json:"metrics,omitempty"`
	End     bool                `json:"end,omitempty"`
}

// writeCompletion streams a shard result as completion frames.
func writeCompletion(w io.Writer, sr *fault.ShardResult) error {
	for lo := 0; lo < len(sr.Records); lo += recordsPerFrame {
		hi := lo + recordsPerFrame
		if hi > len(sr.Records) {
			hi = len(sr.Records)
		}
		if err := writeFrame(w, &completionFrame{Records: sr.Records[lo:hi]}); err != nil {
			return err
		}
	}
	if err := writeFrame(w, &completionFrame{Tally: &sr.Tally}); err != nil {
		return err
	}
	if sr.Metrics != nil {
		if err := writeFrame(w, &completionFrame{Metrics: sr.Metrics}); err != nil {
			return err
		}
	}
	return writeFrame(w, &completionFrame{End: true})
}

// readCompletion parses a completion stream, validating that it is
// complete (end frame present, exactly one tally, the expected record
// count) before anything is returned for folding. A stream that sends
// more records than the lease covers is rejected at the frame that
// overshoots, and a record frame with no records is rejected as empty,
// so every accepted frame makes progress and a runaway worker cannot
// make the coordinator read or buffer an unbounded body.
func readCompletion(r io.Reader, wantRecords int) (*fault.ShardResult, error) {
	sr := &fault.ShardResult{}
	sawTally, sawEnd := false, false
	for !sawEnd {
		var f completionFrame
		if err := readFrame(r, &f); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("shard: completion stream truncated before end frame")
			}
			return nil, err
		}
		switch {
		case len(f.Records) > 0:
			sr.Records = append(sr.Records, f.Records...)
			if len(sr.Records) > wantRecords {
				return nil, fmt.Errorf("shard: completion has more than the %d records the lease covers", wantRecords)
			}
		case f.Tally != nil:
			if sawTally {
				return nil, fmt.Errorf("shard: duplicate tally frame")
			}
			sr.Tally = *f.Tally
			sawTally = true
		case f.Metrics != nil:
			if sr.Metrics != nil {
				return nil, fmt.Errorf("shard: duplicate metrics frame")
			}
			sr.Metrics = f.Metrics
		case f.End:
			sawEnd = true
		default:
			return nil, fmt.Errorf("shard: empty completion frame")
		}
	}
	if !sawTally {
		return nil, fmt.Errorf("shard: completion stream has no tally frame")
	}
	if len(sr.Records) != wantRecords {
		return nil, fmt.Errorf("shard: completion has %d records, lease covers %d", len(sr.Records), wantRecords)
	}
	return sr, nil
}
