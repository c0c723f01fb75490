// Package seeded holds one deliberate violation for the pbcheck CLI
// test: a discarded error return.
package seeded

import "os"

// Cleanup drops the error os.Remove returns.
func Cleanup(path string) {
	os.Remove(path)
}
