package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupTimes runs build n times and returns each duration in seconds. All
// but the last instance are torn down right away; the last one is returned
// for the measured run.
func setupTimes[T any](n int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var inst T
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			inst = v
		}
	}
	return inst, times, nil
}

// budget decides whether another unit of work fits in the measuring
// window: it does if the elapsed time plus the last unit's duration stays
// within the budget. The first unit always runs.
type budget struct {
	start time.Time
	limit time.Duration
	last  time.Duration
	units int
}

func newBudget(seconds float64) *budget {
	return &budget{start: time.Now(), limit: time.Duration(seconds * float64(time.Second))}
}

func (b *budget) more() bool {
	return b.units == 0 || time.Since(b.start)+b.last <= b.limit
}

func (b *budget) done(d time.Duration) { b.last = d; b.units++ }

// stamp describes the machine and the code a result came from.
func stamp() string {
	return "go=" + runtime.Version() +
		" gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" nproc=" + strconv.Itoa(runtime.NumCPU()) +
		" cpu=" + strings.ReplaceAll(cpuModel(), " ", "_") +
		" commit=" + sourceID(".")
}

// sourceID names the code under test: the git HEAD when root is a git
// checkout, otherwise a hash over every source file under root (a plain
// export of a commit has no .git directory).
func sourceID(root string) string {
	if sha := gitHead(filepath.Join(root, ".git")); sha != "" {
		return sha
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func gitHead(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}
