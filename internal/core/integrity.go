package core

import "polar/internal/layout"

// Metadata integrity (§VI.A). The paper observes that POLaR's metadata
// is itself a target: a logical bug that lets an attacker rewrite the
// base→layout table would redirect member resolution wholesale, and
// proposes hardware-backed isolation (MPX/SGX/MPK/TrustZone) as future
// work. In this reproduction the metadata already lives outside the
// simulated address space (the program cannot address it), but to make
// the discussion concrete the runtime can additionally seal every
// record with a keyed MAC and verify it on each slow-path lookup —
// modelling an integrity-protected metadata region. Enable with
// Config.MetadataIntegrity; corruption surfaces as ViolationMetadata.

// metaMAC computes the keyed MAC over the fields an attacker would
// need to forge coherently.
func (r *Runtime) metaMAC(m *ObjectMeta) uint64 {
	x := m.Base ^ r.secret
	x = mix64(x ^ m.ClassHash)
	x = mix64(x ^ m.Layout.Hash())
	x = mix64(x ^ uint64(m.Size))
	if m.Freed {
		x = mix64(x ^ 0xF5EE)
	}
	return x
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 32
	return x
}

// seal stamps the record's MAC (no-op when integrity is disabled).
func (r *Runtime) seal(m *ObjectMeta) {
	if !r.cfg.MetadataIntegrity || m == nil {
		return
	}
	m.mac = r.metaMAC(m)
}

// verifySeal checks the record and reports (possibly returning a
// violation error under PolicyAbort).
func (r *Runtime) verifySeal(m *ObjectMeta) error {
	if !r.cfg.MetadataIntegrity || m == nil {
		return nil
	}
	if m.mac != r.metaMAC(m) {
		return r.violate(ViolationMetadata, m.Base, m.ClassHash, m)
	}
	return nil
}

// CorruptMetadataForTest deliberately rewrites a record's layout (the
// attack §VI.A worries about) so tests can confirm detection. It is
// exported for test use only.
func (r *Runtime) CorruptMetadataForTest(base uint64, l *layout.Layout) bool {
	m, ok := r.store.Lookup(base)
	if !ok {
		return false
	}
	m.Layout = l
	// Note: deliberately NOT resealing — a real attacker without the
	// secret cannot produce a valid MAC.
	r.cache.Invalidate(base, 64)
	return true
}
