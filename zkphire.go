// Package zkphire is the public API of this repository: a from-scratch Go
// implementation of the HyperPlonk zero-knowledge-proof stack (BLS12-381
// fields and curve, SumCheck family, multilinear PCS, Vanilla and Jellyfish
// gates) together with a model of the zkPHIRE programmable SumCheck
// accelerator (HPCA 2026).
//
// Typical proving flow — compile once, preprocess once, prove many times:
//
//	srs, _ := zkphire.Setup(12)
//	b := zkphire.NewBuilder(zkphire.Vanilla)
//	x := b.Secret(3)
//	x3 := b.Mul(b.Mul(x, x), x)
//	b.AssertEqualConst(b.Add(x3, x), 30)
//
//	compiled, _ := zkphire.Compile(b) // logGates auto-sized from the gate count
//	prover, _ := zkphire.NewProver(srs, compiled)
//	proof, _ := prover.Prove(ctx)
//	err := zkphire.Verify(srs, prover.VerifyingKey(), proof)
//
// The preprocessing (selector and wiring commitments) is paid once in
// NewProver and amortized across every subsequent Prove or BatchProve call:
//
//	proofs, _ := prover.BatchProve(ctx, 64, 4) // 64 proofs, 4 workers
//
// Proofs and verifying keys serialize for the wire:
//
//	data, _ := proof.MarshalBinary()
//	vkBytes, _ := prover.VerifyingKey().MarshalBinary()
//	vk, _ := zkphire.UnmarshalVerifyingKey(vkBytes)
//
// Hardware modeling flow — the Estimator interface prices the same protocol
// workload on the zkPHIRE accelerator, the zkSpeed+ baseline ASIC, and the
// paper's CPU baseline with one polymorphic call:
//
//	for _, est := range zkphire.Estimators() {
//	    e, err := est.EstimateProtocol(zkphire.Jellyfish, 24)
//	    ...
//	}
//
// For many concurrent clients and heterogeneous circuits, the serving
// layer (internal/service, wrapped by cmd/zkphired) adds a
// content-hash-keyed session cache ([CompiledCircuit.Hash]), a bounded job
// queue with admission control, and an HTTP API over the wire formats
// above. ARCHITECTURE.md maps all the layers.
package zkphire

import (
	"crypto/rand"

	"zkphire/internal/hyperplonk"
	"zkphire/internal/pcs"
)

// SRS is a structured reference string for circuits of up to MaxVars
// variables (2^MaxVars−1 gates, one variable reserved for the permutation
// product tree).
type SRS = pcs.SRS

// Setup generates an SRS with system randomness.
func Setup(maxVars int) (*SRS, error) {
	return pcs.Setup(maxVars, rand.Reader)
}

// SetupDeterministic generates a reproducible SRS for tests and examples.
// Unlike Setup, it panics when maxVars is outside 1..26.
func SetupDeterministic(maxVars int, seed int64) *SRS {
	return pcs.SetupDeterministic(maxVars, seed)
}

// Proof is a HyperPlonk proof. It implements encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler; deserialization validates every scalar and
// group element, so proofs from an untrusted wire are safe to verify.
type Proof = hyperplonk.Proof

// VerifyingKey is the preprocessed circuit index. MarshalBinary writes the
// verifier's view (commitments only); see UnmarshalVerifyingKey.
type VerifyingKey = hyperplonk.Index

// ErrWireFormat is wrapped by Proof.UnmarshalBinary and
// UnmarshalVerifyingKey when the bytes are not wire format v2 (48-byte
// compressed points), proofs and keys written in v1 included.
var ErrWireFormat = hyperplonk.ErrWireFormat

// Verify checks a proof against its verifying key.
func Verify(srs *SRS, vk *VerifyingKey, proof *Proof) error {
	return hyperplonk.Verify(srs, vk, proof)
}

// UnmarshalVerifyingKey deserializes a verifying key produced by
// VerifyingKey.MarshalBinary. The result carries the verifier's view only —
// it verifies proofs but cannot be used to construct a Prover.
func UnmarshalVerifyingKey(data []byte) (*VerifyingKey, error) {
	return hyperplonk.UnmarshalVerifyingKey(data)
}

// Well-known constraint IDs from the paper's Table I.
const (
	VanillaZeroCheckID   = 20
	VanillaPermCheckID   = 21
	JellyfishZeroCheckID = 22
	JellyfishPermCheckID = 23
	OpenCheckID          = 24
)
