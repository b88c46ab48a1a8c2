package session

import (
	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/workload"
)

// BuildOptionsFor is the one place the binary flavour is derived from a
// DVI level: E-DVI annotated binaries exactly when the hardware honours
// explicit annotations (core.Full). None- and IDVI-level runs execute
// plain binaries — the paper's I-DVI configuration exploits only the
// calling convention, so shipping kill annotations to it would measure
// fetch overhead the hardware ignores. Every front door (the facade
// one-shots, the harness grids, the CLIs, the HTTP service) routes its
// flavour decision through this rule.
func BuildOptionsFor(level core.Level) workload.BuildOptions {
	return workload.BuildOptions{EDVI: level == core.Full}
}

// EmuConfigFor assembles the emulator configuration for a DVI level and
// elimination scheme: no tracker state for None, the ABI's implicit kills
// for IDVI, the full LVM + LVM-Stack hardware for Full.
func EmuConfigFor(level core.Level, scheme emu.Scheme) emu.Config {
	cfg := emu.Config{Scheme: scheme}
	switch level {
	case core.None:
		cfg.DVI = core.Config{Level: core.None}
	case core.IDVI:
		cfg.DVI = core.Config{Level: core.IDVI, ABI: isa.DefaultABI()}
	default:
		cfg.DVI = core.DefaultConfig()
	}
	return cfg
}
