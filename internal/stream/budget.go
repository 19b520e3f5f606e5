package stream

import "wet/internal/wire"

// SaveSize returns the exact number of bytes Encode writes for s. This is
// the byte-budget optimizer's per-stream cost oracle: unlike SizeBits it
// includes every framing field Encode emits, so summing SaveSize over a
// container's streams plus the fixed section overhead reproduces the
// on-disk size exactly.
func SaveSize(s Stream) (uint64, error) {
	var e wire.Enc
	if err := Encode(&e, s); err != nil {
		return 0, err
	}
	return uint64(len(e.B)), nil
}

// Empty returns the canonical zero-length stream (a verbatim with no
// values). Budgeted freezes substitute it for dropped value and dependence
// streams so the container keeps an identical payload shape — Encode writes
// the 9-byte empty-verbatim form — while the data itself is gone.
func Empty() Stream { return newVerbatim(nil) }
