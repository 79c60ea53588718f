//go:build !amd64

package main

// cpuModel is known only where the CPUID instruction is wired up.
func cpuModel() string { return "unknown" }
