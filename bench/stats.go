package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile is the q-quantile of v by linear interpolation between
// closest ranks (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func durMS(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	return v
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest candidate percentile with at least ten
// of n samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// fingerprint describes the machine a result was measured on.
type fingerprint struct {
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPU        string    `json:"cpu"`
	Kernel     string    `json:"kernel"`
	LoadAvg    []float64 `json:"loadavg"`
}

func machineFingerprint() fingerprint {
	f := fingerprint{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		f.Kernel = utsString(u.Release[:])
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		for _, l := range si.Loads {
			f.LoadAvg = append(f.LoadAvg, float64(l)/65536)
		}
	}
	return f
}

func utsString(b []int8) string {
	var s strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		s.WriteByte(byte(c))
	}
	return s.String()
}

// calibrate times a fixed amount of CPU work (sha256 over 32 MiB) reps
// times and returns the durations in milliseconds. The same work before
// and after a workload shows whether the machine's speed drifted while
// it ran.
func calibrate(reps int) []float64 {
	buf := make([]byte, 1<<20)
	out := make([]float64, reps)
	for r := range out {
		start := time.Now()
		for i := 0; i < 32; i++ {
			sum := sha256.Sum256(buf)
			buf[0] = sum[0]
		}
		out[r] = ms(time.Since(start))
	}
	return out
}
