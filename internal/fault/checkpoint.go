// Checkpoint journals for campaign-shaped workloads.
//
// A Checkpoint records completed work along a *deterministic flow* — a
// sequence of campaign runs whose fault lists, pattern words, and configs
// are fully determined by the flow's inputs (seed, design, flags). Each
// campaign run binds one journal *section* (identified by digests of its
// fault list, pattern words, and config); each completed chunk appends a
// fault-index range plus its serialized results and a digest.
//
// On resume the flow is simply re-executed: campaign runs whose sections
// are journaled rehydrate instantly instead of simulating, the first
// incomplete section resumes at chunk granularity, and everything after
// runs fresh. Because results depend only on (fault, pattern words) — not
// on worker count or scheduling — a resumed run is bit-identical to an
// uninterrupted one at any worker count.
//
// The journal is crash-safe: every flush writes the whole normalized
// journal to a temp file in the same directory, fsyncs, then renames over
// the target, so the on-disk file is always a consistent snapshot.
package fault

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rescue/internal/netlist"
)

// CampaignKey pins a journal section to one specific campaign run. Two runs
// with equal keys are guaranteed to produce identical results, so a
// section recorded by one can be rehydrated by the other. Any mismatch
// (different seed, design, pattern set, worker-independent config) is
// detected and refused instead of silently resuming the wrong work.
type CampaignKey struct {
	NFaults        int    `json:"nFaults"`
	FaultsDigest   string `json:"faultsDigest"`
	WLo            int    `json:"wLo"`
	WHi            int    `json:"wHi"`
	PatternsDigest string `json:"patternsDigest"`
	MaxFail        int    `json:"maxFail"`
	Drop           bool   `json:"drop"`
}

// campaignIdentity digests the inputs that determine a run's results.
func campaignIdentity(core *simCore, faults []netlist.Fault, wLo, wHi int, cfg CampaignConfig) CampaignKey {
	fh := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		fh.Write(buf[:])
	}
	for _, f := range faults {
		writeInt(int64(f.Gate))
		writeInt(int64(f.FF))
		writeInt(int64(f.Pin))
		if f.StuckAt1 {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	faultsDigest := fmt.Sprintf("%016x", fh.Sum64())

	ph := fnv.New64a()
	writeIntP := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		ph.Write(buf[:])
	}
	for w := wLo; w < wHi && w < len(core.Patterns); w++ {
		p := core.Patterns[w]
		writeIntP(int64(p.Lanes))
		for _, v := range p.FFVals {
			writeIntP(int64(v))
		}
		for _, v := range p.PIVals {
			writeIntP(int64(v))
		}
	}
	return CampaignKey{
		NFaults:        len(faults),
		FaultsDigest:   faultsDigest,
		WLo:            wLo,
		WHi:            wHi,
		PatternsDigest: fmt.Sprintf("%016x", ph.Sum64()),
		MaxFail:        cfg.MaxFail,
		Drop:           cfg.Drop,
	}
}

// ckRange is one journaled span of completed fault indices [Lo, Hi) with
// their results.
type ckRange struct {
	Lo, Hi  int
	Results []Result
}

// ckSection is the journal of one campaign run.
type ckSection struct {
	mu     sync.Mutex
	id     CampaignKey
	ranges []ckRange
}

// restore rehydrates journaled results into out and returns the done
// bitmap (nil when nothing was journaled) plus the rehydrated count.
func (s *ckSection) restore(out []Result) ([]bool, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ranges) == 0 {
		return nil, 0
	}
	done := make([]bool, len(out))
	var n int64
	for _, r := range s.ranges {
		for i := r.Lo; i < r.Hi && i < len(out); i++ {
			if !done[i] {
				out[i] = r.Results[i-r.Lo]
				done[i] = true
				n++
			}
		}
	}
	return done, n
}

// record journals the freshly simulated sub-ranges of chunk [lo, hi):
// indices already rehydrated (done) are skipped so ranges never overlap.
func (s *ckSection) record(lo, hi int, out []Result, done []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := lo
	for i < hi {
		for i < hi && done != nil && done[i] {
			i++
		}
		j := i
		for j < hi && (done == nil || !done[j]) {
			j++
		}
		if j > i {
			s.ranges = append(s.ranges, ckRange{Lo: i, Hi: j, Results: append([]Result(nil), out[i:j]...)})
		}
		i = j
	}
}

// normalize sorts ranges by Lo and merges adjacent spans so flushed
// journals stay compact across many resume cycles.
func (s *ckSection) normalize() []ckRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].Lo < s.ranges[j].Lo })
	var merged []ckRange
	for _, r := range s.ranges {
		if n := len(merged); n > 0 && merged[n-1].Hi == r.Lo {
			merged[n-1].Hi = r.Hi
			merged[n-1].Results = append(merged[n-1].Results, r.Results...)
		} else {
			merged = append(merged, r)
		}
	}
	s.ranges = merged
	// Return a copy of the headers with shared result slices: Flush
	// serializes outside the section lock.
	return append([]ckRange(nil), merged...)
}

// Checkpoint is a crash-safe journal for a deterministic sequence of
// campaign runs. It is safe for use by the campaign workers (record) and
// the flusher concurrently; the section cursor itself advances only
// between runs.
type Checkpoint struct {
	mu       sync.Mutex
	path     string
	sections []*ckSection
	cursor   int
	flexible bool
}

// Path returns the journal's on-disk location.
func (ck *Checkpoint) Path() string { return ck.path }

// ContentAddressed switches the journal from strict positional section
// matching to matching by content identity. Strict mode (the CLI default)
// refuses a resume whose next campaign differs from the journaled one —
// the right guard when the journal path is user-chosen and could belong to
// a run with different flags. Content-addressed mode is for callers that
// already bind the journal path to the run's full identity (rescued names
// journals by the job-spec digest): there a divergent section order is not
// user error but a cache effect — a run whose early campaigns were served
// from a warm artifact store journals only its later ones, and the cold
// re-run must still find them.
func (ck *Checkpoint) ContentAddressed() { ck.flexible = true }

// NewCheckpoint starts a fresh journal at path. Nothing is written until
// the first Flush.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path}
}

// OpenCheckpoint opens a journal for a CLI run: with resume, any existing
// journal at path is loaded (a missing file starts fresh); without resume,
// an existing file is refused so a stale journal from a different run can
// never be silently clobbered or misapplied.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	if !resume {
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("fault: checkpoint %s already exists; pass -resume to continue it or remove the file", path)
		}
		return NewCheckpoint(path), nil
	}
	return LoadCheckpoint(path)
}

// LoadCheckpoint reads a journal written by Flush. A missing file yields
// an empty (fresh) checkpoint; a corrupt file is an error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck := NewCheckpoint(path)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := ck.read(f); err != nil {
		return nil, fmt.Errorf("fault: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// ckLine is the union of the journal's line shapes (header, section,
// range), distinguished by which fields are present.
type ckLine struct {
	V       *int            `json:"v,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Section *int            `json:"section,omitempty"`
	ID      *CampaignKey    `json:"id,omitempty"`
	Lo      int             `json:"lo"`
	Hi      int             `json:"hi"`
	Digest  string          `json:"digest,omitempty"`
	Results json.RawMessage `json:"results,omitempty"`
}

const ckKind = "rescue-campaign-checkpoint"

func (ck *Checkpoint) read(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lineNo := 0
	sawHeader := false
	var cur *ckSection
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ln ckLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !sawHeader && ln.V == nil {
			return fmt.Errorf("line %d: missing journal header", lineNo)
		}
		switch {
		case ln.V != nil:
			if *ln.V != 1 || ln.Kind != ckKind {
				return fmt.Errorf("line %d: not a %s v1 journal", lineNo, ckKind)
			}
			sawHeader = true
		case ln.ID != nil:
			if ln.Section == nil || *ln.Section != len(ck.sections) {
				return fmt.Errorf("line %d: section out of order", lineNo)
			}
			cur = &ckSection{id: *ln.ID}
			ck.sections = append(ck.sections, cur)
		case ln.Results != nil:
			if cur == nil {
				return fmt.Errorf("line %d: range before any section", lineNo)
			}
			if got := resultsDigest(ln.Results); got != ln.Digest {
				return fmt.Errorf("line %d: results digest mismatch (journal corrupt?)", lineNo)
			}
			var results []Result
			if err := json.Unmarshal(ln.Results, &results); err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			if ln.Lo < 0 || ln.Hi < ln.Lo || ln.Hi-ln.Lo != len(results) || ln.Hi > cur.id.NFaults {
				return fmt.Errorf("line %d: range [%d,%d) inconsistent with %d results (section has %d faults)",
					lineNo, ln.Lo, ln.Hi, len(results), cur.id.NFaults)
			}
			cur.ranges = append(cur.ranges, ckRange{Lo: ln.Lo, Hi: ln.Hi, Results: results})
		default:
			return fmt.Errorf("line %d: unrecognized journal line", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(ck.sections) == 0 {
		return fmt.Errorf("empty or headerless journal")
	}
	return nil
}

// section binds the next campaign run of the flow to its journal section.
// A loaded section must match the run's identity exactly; divergence means
// the flow was re-run with different inputs and resuming would be wrong.
func (ck *Checkpoint) section(id CampaignKey) (*ckSection, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.cursor < len(ck.sections) {
		s := ck.sections[ck.cursor]
		if s.id == id {
			ck.cursor++
			return s, nil
		}
		if !ck.flexible {
			return nil, fmt.Errorf("fault: checkpoint %s section %d was journaled by a different run "+
				"(journal %+v, this run %+v) — same seed, design, and flags are required to resume",
				ck.path, ck.cursor, s.id, id)
		}
		// Content-addressed: claim the matching journaled section wherever
		// it is, preserving the relative order of the ones skipped over.
		for i := ck.cursor + 1; i < len(ck.sections); i++ {
			if ck.sections[i].id == id {
				match := ck.sections[i]
				copy(ck.sections[ck.cursor+1:i+1], ck.sections[ck.cursor:i])
				ck.sections[ck.cursor] = match
				ck.cursor++
				return match, nil
			}
		}
		// Not journaled at all: a fresh section, inserted at the cursor.
		fresh := &ckSection{id: id}
		ck.sections = append(ck.sections, nil)
		copy(ck.sections[ck.cursor+1:], ck.sections[ck.cursor:])
		ck.sections[ck.cursor] = fresh
		ck.cursor++
		return fresh, nil
	}
	s := &ckSection{id: id}
	ck.sections = append(ck.sections, s)
	ck.cursor++
	return s, nil
}

func resultsDigest(raw []byte) string {
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Flush atomically persists the whole journal: write to a temp file in the
// same directory, fsync, rename over the target. Safe to call while a
// campaign is recording; the snapshot is internally consistent.
func (ck *Checkpoint) Flush() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.path == "" {
		return nil
	}
	dir := filepath.Dir(ck.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(ck.path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	bw := bufio.NewWriterSize(tmp, 1<<20)
	enc := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		bw.Write(b)
		return bw.WriteByte('\n')
	}
	v := 1
	if err := enc(ckLine{V: &v, Kind: ckKind}); err != nil {
		tmp.Close()
		return err
	}
	for si, s := range ck.sections {
		sec := si
		id := s.id
		if err := enc(ckLine{Section: &sec, ID: &id}); err != nil {
			tmp.Close()
			return err
		}
		for _, r := range s.normalize() {
			raw, err := json.Marshal(r.Results)
			if err != nil {
				tmp.Close()
				return err
			}
			if err := enc(ckLine{Lo: r.Lo, Hi: r.Hi, Digest: resultsDigest(raw), Results: raw}); err != nil {
				tmp.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), ck.path)
}
