package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Canonical configuration hashing — the identity half of the
// content-addressed result cache (internal/server). Two sweep requests
// may serve one cached body exactly when they would produce
// byte-identical responses, and a response echoes its parsed Config, so
// the right equivalence is equality of the *validated struct*: every
// JSON spelling that LoadConfigJSON resolves to the same Config
// (fields in any order, defaults omitted or written out explicitly)
// must hash equal, and any two distinct structs must hash apart.
//
// CanonicalBytes realizes that by serializing the validated struct
// itself: encoding/json marshals struct fields in declaration order
// with a fixed numeric rendering, so the encoding is deterministic, and
// every field round-trips, so it is injective on validated configs.
// The bytes are a serialization contract only in the weak sense —
// they are hashed, never parsed back.

// CanonicalBytes returns the deterministic serialization of a validated
// configuration: equal validated configs yield equal bytes and distinct
// configs yield distinct bytes. It fails with the configuration's own
// validation error, so an unvalidated config can never acquire a cache
// identity.
func (c Config) CanonicalBytes() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// CanonicalHash returns the hex SHA-256 of CanonicalBytes — the
// content address of this configuration, stable across processes and
// restarts because it depends only on the struct value. Within one
// process the Config value itself is the same identity (GroupLanes
// keys by it); the service's result-cache keys hash CanonicalBytes
// together with the workload.
func (c Config) CanonicalHash() (string, error) {
	b, err := c.CanonicalBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
