package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"mbbp/internal/core"
	"mbbp/internal/trace"
)

// provenance identifies everything a run's numbers depend on: the host,
// the build, the seed and size, every generated configuration and the
// content of every trace. It heads every report and every spans file.
type provenance struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	N          uint64      `json:"n"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Revision   string      `json:"vcs_revision"`
	Modified   string      `json:"vcs_modified"`
	Configs    []provCfg   `json:"configs"`
	Traces     []provTrace `json:"traces"`
}

type provCfg struct {
	Hash  string `json:"canonical_hash"`
	Label string `json:"label"`
}

type provTrace struct {
	Program string `json:"program"`
	N       uint64 `json:"n"`
	SHA256  string `json:"records_sha256"`
}

func newProvenance(o *options) *provenance {
	p := &provenance{
		Workload:   o.workload,
		Seed:       o.seed,
		N:          o.n,
		Seconds:    o.seconds,
		Traced:     o.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

func (p *provenance) addConfigs(cfgs ...core.Config) {
	for _, cfg := range cfgs {
		p.Configs = append(p.Configs, provCfg{Hash: configHash(cfg), Label: cfg.String()})
	}
}

func (p *provenance) addTrace(program string, n uint64, b *trace.Buffer) {
	p.Traces = append(p.Traces, provTrace{Program: program, N: n, SHA256: recordsHash(b)})
}

// recordsHash is the sha256 of a trace's packed records, little-endian.
func recordsHash(b *trace.Buffer) string {
	h := sha256.New()
	c := b.Clone()
	buf := make([]byte, 0, 8*4096)
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(trace.Pack(r)))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// print writes the header lines of a report.
func (p *provenance) print(w *bufio.Writer) {
	fmt.Fprintf(w, "# bench workload=%s seed=%d n=%s seconds=%g traced=%t\n",
		p.Workload, p.Seed, sizeLabel(p.N), p.Seconds, p.Traced)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s vcs.revision=%s vcs.modified=%s\n",
		p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Revision, p.Modified)
	for _, c := range p.Configs {
		fmt.Fprintf(w, "# config %s %s\n", c.Hash, c.Label)
	}
	for _, t := range p.Traces {
		fmt.Fprintf(w, "# trace %s n=%d records_sha256=%s\n", t.Program, t.N, t.SHA256)
	}
}

func sizeLabel(n uint64) string {
	if n == 0 {
		return "default"
	}
	return strconv.FormatUint(n, 10)
}

// vmHWM returns the peak resident set of a process in MB, read from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
