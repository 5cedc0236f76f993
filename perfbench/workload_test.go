package main

import "testing"

// TestSameSeedSameBodies is the generator self-test every run also makes:
// the same seed yields byte-identical request bodies, another seed does not.
func TestSameSeedSameBodies(t *testing.T) {
	if err := selfTest(20); err != nil {
		t.Fatal(err)
	}
}
