package store

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"

	"cascade/internal/model"
)

// The synthetic payload generator: every incarnation (origin, conformance
// oracle, load generator) derives an object's bytes from its identity with
// the same LCG, so body hashes can be compared across processes without
// shipping the bytes. The recurrence is
//
//	s₀   = obj·2654435761 + 12345
//	sᵢ₊₁ = sᵢ·A + C          (A, C from Knuth's MMIX LCG)
//	bᵢ   = byte(sᵢ₊₁ >> 56)
//
// which must stay bit-for-bit stable: conformance pins it.

const (
	lcgA uint64 = 6364136223846793005
	lcgC uint64 = 1442695040888963407
)

func synthSeed(obj model.ObjectID) uint64 {
	return uint64(obj)*2654435761 + 12345
}

// synthFill writes the LCG stream that follows state into out.
func synthFill(out []byte, state uint64) {
	for i := range out {
		state = state*lcgA + lcgC
		out[i] = byte(state >> 56)
	}
}

// SyntheticBody returns the deterministic payload for obj at the given size.
func SyntheticBody(obj model.ObjectID, size int) []byte {
	body := make([]byte, size)
	synthFill(body, synthSeed(obj))
	return body
}

// AppendSyntheticBody appends SyntheticBody(obj, size) to dst and returns
// the extended slice, reusing dst's capacity — the origin synthesises every
// served body into a pooled scratch buffer this way.
func AppendSyntheticBody(dst []byte, obj model.ObjectID, size int) []byte {
	n := len(dst)
	dst = slices.Grow(dst, size)[:n+size]
	synthFill(dst[n:], synthSeed(obj))
	return dst
}

// SyntheticRange returns bytes [lo, hi) of SyntheticBody(obj, size) without
// materialising the prefix: the LCG is fast-forwarded lo steps in O(log lo)
// by squaring the affine map (A, C) — composing s↦As+C with itself n times
// yields another affine map, so f^(m+n) = (AmAn, AmCn+Cm).
func SyntheticRange(obj model.ObjectID, size int, lo, hi int) []byte {
	if lo < 0 {
		lo = 0
	}
	if hi > size {
		hi = size
	}
	if hi <= lo {
		return []byte{}
	}
	out := make([]byte, hi-lo)
	synthFill(out, lcgSkip(synthSeed(obj), uint64(lo)))
	return out
}

// lcgSkip advances the LCG state n steps.
func lcgSkip(state, n uint64) uint64 {
	accA, accC := uint64(1), uint64(0) // identity affine map
	curA, curC := lcgA, lcgC
	for n > 0 {
		if n&1 == 1 {
			// acc = cur ∘ acc
			accA, accC = curA*accA, curA*accC+curC
		}
		// cur = cur ∘ cur
		curA, curC = curA*curA, curA*curC+curC
		n >>= 1
	}
	return accA*state + accC
}

// BodyHash is the conformance fingerprint of a payload (hex SHA-256).
func BodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// SegmentID derives the placement identity of segment idx of a large base
// object. Each segment is a first-class object to the decision engine —
// its own descriptor, its own placement — so the identity must be
// deterministic across processes and collision-resistant against both base
// ids and other segments. Splitmix-style finalizer over (base, idx); the
// top bit is cleared so the id stays positive under int64 conversions.
func SegmentID(base model.ObjectID, idx int) model.ObjectID {
	h := uint64(base)*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return model.ObjectID(h >> 1)
}

// SegmentCount is the number of segSize segments covering total bytes.
func SegmentCount(total, segSize int64) int {
	if segSize <= 0 || total <= 0 {
		return 0
	}
	return int((total + segSize - 1) / segSize)
}
