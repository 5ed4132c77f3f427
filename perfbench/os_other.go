//go:build !linux

package main

// settleDisk is a no-op where sync(2) is not wired up.
func settleDisk() {}
