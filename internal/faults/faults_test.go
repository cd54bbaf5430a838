package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eva/internal/costs"
	"eva/internal/simclock"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Check("udf:x"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	short, err := inj.CheckWrite("view:write:x", 0, 10)
	if err != nil || short != 10 {
		t.Fatalf("nil injector write = (%d, %v)", short, err)
	}
	if err := inj.CheckEval("udf:x", 7, 1); err != nil {
		t.Fatalf("nil injector eval = %v", err)
	}
	if inj.Calls("udf:x") != 0 || inj.Injected() != 0 || inj.Events() != nil || inj.EventsSorted() != nil {
		t.Fatal("nil injector accumulated state")
	}
}

func TestScriptedOrdinals(t *testing.T) {
	inj := New(1)
	inj.Rule("udf:m", Rule{Kind: Transient, At: []int{2, 4}})
	var got []int
	for call := 1; call <= 5; call++ {
		if err := inj.Check("udf:m"); err != nil {
			f, ok := AsFault(err)
			if !ok {
				t.Fatalf("call %d: not a *Fault: %v", call, err)
			}
			if f.Call != call || f.Site != "udf:m" {
				t.Errorf("fault = %+v at call %d", f, call)
			}
			got = append(got, call)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("fired at %v, want [2 4]", got)
	}
	if inj.Calls("udf:m") != 5 {
		t.Errorf("calls = %d", inj.Calls("udf:m"))
	}
}

func TestKindPredicates(t *testing.T) {
	inj := New(7)
	inj.Rule("a", Rule{Kind: Transient, At: []int{1}})
	inj.Rule("b", Rule{Kind: Permanent, At: []int{1}})
	inj.Rule("c", Rule{Kind: Crash, At: []int{1}})
	at := inj.Check("a")
	bt := inj.Check("b")
	ct := inj.Check("c")
	if !IsTransient(at) || IsTransient(bt) || IsTransient(ct) {
		t.Error("IsTransient misclassified")
	}
	if IsCrash(at) || IsCrash(bt) || !IsCrash(ct) {
		t.Error("IsCrash misclassified")
	}
	// Predicates see through wrapping.
	wrapped := fmt.Errorf("udf: YoloTiny: %w", at)
	if !IsTransient(wrapped) {
		t.Error("wrapped transient fault not recognized")
	}
	if _, ok := AsFault(errors.New("plain")); ok {
		t.Error("plain error misread as fault")
	}
}

func TestWildcardPrefixMatch(t *testing.T) {
	inj := New(3)
	inj.Rule("view:write:*", Rule{Kind: Permanent, At: []int{1}})
	if err := inj.Check("view:write:udf_cartype"); err == nil {
		t.Fatal("wildcard rule did not fire")
	}
	if err := inj.Check("udf:cartype"); err != nil {
		t.Fatalf("wildcard rule leaked to other site: %v", err)
	}
}

func TestCrashShortWriteClamped(t *testing.T) {
	inj := New(9)
	inj.Rule("w", Rule{Kind: Crash, At: []int{1}, ShortWrite: 100})
	short, err := inj.CheckWrite("w", 0, 8)
	if !IsCrash(err) {
		t.Fatalf("err = %v", err)
	}
	if short != 8 {
		t.Fatalf("short = %d, want clamp to 8", short)
	}
	// Non-crash faults block the whole write.
	inj2 := New(9)
	inj2.Rule("w", Rule{Kind: Transient, At: []int{1}})
	short, err = inj2.CheckWrite("w", 0, 8)
	if short != 0 || !IsTransient(err) {
		t.Fatalf("transient write = (%d, %v)", short, err)
	}
}

func TestLimitCapsFirings(t *testing.T) {
	inj := New(2)
	inj.Rule("s", Rule{Kind: Transient, Prob: 1, Limit: 3})
	fired := 0
	for k := 0; k < 10; k++ {
		if inj.Check("s") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	if inj.Injected() != 3 || len(inj.Events()) != 3 {
		t.Errorf("log = %v", inj.Events())
	}
}

// TestSeededReplayIsDeterministic is the framework's core contract:
// the same seed and the same call sequence yield the same schedule,
// and different seeds yield different ones.
func TestSeededReplayIsDeterministic(t *testing.T) {
	schedule := func(seed uint64) []Event {
		inj := New(seed)
		inj.Rule("udf:*", Rule{Kind: Transient, Prob: 0.3})
		inj.Rule("view:write:*", Rule{Kind: Permanent, Prob: 0.1})
		for k := 0; k < 200; k++ {
			inj.CheckEval("udf:a", uint64(k), 1)
			inj.CheckEval("udf:b", uint64(k), 1)
			inj.CheckWrite("view:write:v", uint64(64*k), 64)
		}
		return inj.Events()
	}
	a1, a2 := schedule(42), schedule(42)
	if len(a1) == 0 {
		t.Fatal("no faults fired at p=0.3 over 600 calls")
	}
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatal("same seed produced different schedules")
	}
	if b := schedule(43); fmt.Sprint(a1) == fmt.Sprint(b) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestProbabilityRoughlyCalibrated(t *testing.T) {
	inj := New(11)
	inj.Rule("s", Rule{Kind: Transient, Prob: 0.5})
	fired := 0
	const n = 2000
	for k := 0; k < n; k++ {
		if inj.Check("s") != nil {
			fired++
		}
	}
	if fired < n/3 || fired > 2*n/3 {
		t.Fatalf("p=0.5 fired %d/%d times", fired, n)
	}
}

// TestEvalAttemptOrdinals: At rules on eval sites match the 1-based
// retry attempt within one invocation, regardless of how many other
// invocations hit the site first.
func TestEvalAttemptOrdinals(t *testing.T) {
	inj := New(5)
	inj.Rule("udf:m", Rule{Kind: Transient, At: []int{1, 2}})
	for id := uint64(0); id < 3; id++ {
		for attempt := 1; attempt <= 4; attempt++ {
			err := inj.CheckEval("udf:m", id, attempt)
			want := attempt <= 2
			if (err != nil) != want {
				t.Fatalf("id %d attempt %d: err = %v, want fault = %v", id, attempt, err, want)
			}
			if err != nil {
				f, _ := AsFault(err)
				if f.Call != attempt {
					t.Errorf("fault Call = %d, want attempt %d", f.Call, attempt)
				}
			}
		}
	}
}

// TestEvalDecisionsAreOrderIndependent: the per-identity fault
// schedule is a pure function of (seed, site, id, occurrence,
// attempt) — interleaving identities in any order yields the same
// per-identity decisions and the same canonical event log.
func TestEvalDecisionsAreOrderIndependent(t *testing.T) {
	const ids = 200
	run := func(order []uint64) (map[uint64]bool, []Event) {
		inj := New(77)
		inj.Rule("udf:m", Rule{Kind: Transient, Prob: 0.3})
		hits := map[uint64]bool{}
		for _, id := range order {
			hits[id] = inj.CheckEval("udf:m", id, 1) != nil
		}
		return hits, inj.EventsSorted()
	}
	fwd := make([]uint64, ids)
	rev := make([]uint64, ids)
	for k := range fwd {
		fwd[k] = uint64(k)
		rev[k] = uint64(ids - 1 - k)
	}
	hf, ef := run(fwd)
	hr, er := run(rev)
	fired := 0
	for id := uint64(0); id < ids; id++ {
		if hf[id] != hr[id] {
			t.Errorf("id %d decision differs with call order: %v vs %v", id, hf[id], hr[id])
		}
		if hf[id] {
			fired++
		}
	}
	if fired == 0 || fired == ids {
		t.Fatalf("p=0.3 fired %d/%d — draws not calibrated", fired, ids)
	}
	if fmt.Sprint(ef) != fmt.Sprint(er) {
		t.Errorf("canonical event logs differ:\n%v\n%v", ef, er)
	}
}

// TestOccurrenceRedrawsSchedule: restarting an invocation from attempt
// 1 (a replanned query, a rolled-back write retried at the same LSN)
// opens a fresh occurrence with an independent draw — the schedule
// must not deterministically pin the same identity forever.
func TestOccurrenceRedrawsSchedule(t *testing.T) {
	inj := New(3)
	inj.Rule("udf:m", Rule{Kind: Transient, Prob: 0.5})
	flips := 0
	const ids, restarts = 64, 8
	for id := uint64(0); id < ids; id++ {
		first := inj.CheckEval("udf:m", id, 1) != nil
		for o := 1; o < restarts; o++ {
			if (inj.CheckEval("udf:m", id, 1) != nil) != first {
				flips++
				break
			}
		}
	}
	if flips < ids/4 {
		t.Fatalf("only %d/%d identities ever redrew across %d occurrences", flips, ids, restarts)
	}
	// Write sites: the same LSN retried draws afresh too.
	wInj := New(3)
	wInj.Rule("w", Rule{Kind: Transient, Prob: 0.5})
	outcomes := map[bool]bool{}
	for k := 0; k < 64; k++ {
		_, err := wInj.CheckWrite("w", 4096, 32)
		outcomes[err != nil] = true
	}
	if len(outcomes) != 2 {
		t.Fatalf("64 retries at one LSN always gave %v", outcomes)
	}
}

// TestEventsSortedCanonical: EventsSorted orders by (site, id, call,
// kind) and is stable against arrival order.
func TestEventsSortedCanonical(t *testing.T) {
	inj := New(1)
	inj.Rule("b", Rule{Kind: Permanent, At: []int{1}})
	inj.Rule("a", Rule{Kind: Transient, At: []int{2}})
	inj.CheckEval("b", 9, 1)
	inj.CheckEval("a", 4, 2)
	inj.CheckEval("a", 2, 2)
	evs := inj.EventsSorted()
	if len(evs) != 3 {
		t.Fatalf("events = %v", evs)
	}
	want := []Event{
		{Site: "a", Kind: Transient, Call: 2, ID: 2},
		{Site: "a", Kind: Transient, Call: 2, ID: 4},
		{Site: "b", Kind: Permanent, Call: 1, ID: 9},
	}
	if fmt.Sprint(evs) != fmt.Sprint(want) {
		t.Fatalf("sorted events = %v, want %v", evs, want)
	}
}

// TestWriteAtMatchesArrivalOrdinal: scripted kill points on write
// sites address the site's N-th append, not the LSN, so the crash
// matrix scripts stay valid.
func TestWriteAtMatchesArrivalOrdinal(t *testing.T) {
	inj := New(2)
	inj.Rule("w", Rule{Kind: Crash, At: []int{3}, ShortWrite: 4})
	var fired []int
	lsn := uint64(0)
	for call := 1; call <= 5; call++ {
		short, err := inj.CheckWrite("w", lsn, 16)
		if err != nil {
			if !IsCrash(err) || short != 4 {
				t.Fatalf("call %d: (%d, %v)", call, short, err)
			}
			fired = append(fired, call)
			lsn += uint64(short)
			continue
		}
		lsn += 16
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("crash fired at %v, want [3]", fired)
	}
}

// TestRegisteredSite pins the site registry: every constructor output
// and wildcard pattern resolves, and near-miss typos do not — the
// runtime twin of the evalint faultsite analyzer's static check.
func TestRegisteredSite(t *testing.T) {
	valid := []string{
		SiteUDF("YoloTiny"),
		SiteViewWrite("udf_x_frame"),
		SiteViewEvict("udf_x_frame"),
		SiteDiskFull(SiteViewWrite("udf_x_frame")),
		SiteDiskFull(SiteIngestAppend("traffic")),
		SiteIngestAppend("traffic"),
		SiteIngestCheckpoint("redtrucks"),
		SiteIngestNotify("redtrucks"),
		SiteDeadline,
		SiteAny,
		SiteUDFAny,
		SiteViewWriteAny,
		SiteViewEvictAny,
		SiteDiskFullAny,
		SiteIngestAny,
		SiteIngestAppendAny,
		SiteIngestCheckpointAny,
		SiteIngestNotifyAny,
		"view:*",             // stem on the way to a registered family
		"udf:yolo*",          // wildcard inside a family
		"view:write:udf_x*",  // wildcard inside a family
		"ingest:append:tra*", // wildcard inside a family
	}
	for _, s := range valid {
		if !RegisteredSite(s) {
			t.Errorf("RegisteredSite(%q) = false, want true", s)
		}
	}
	invalid := []string{
		"",
		"udf",               // family prefix without the separator or a member
		"udf:",              // family prefix with no member
		"uddf:yolotiny",     // typo'd family
		"veiw:write:*",      // typo'd family wildcard
		"exec:deadlines",    // near-miss of an exact site
		"exec:deadline:sub", // exact sites are not families
		"ingest:",           // family stem with no member
		"ingets:append:t",   // typo'd ingest family
	}
	for _, s := range invalid {
		if RegisteredSite(s) {
			t.Errorf("RegisteredSite(%q) = true, want false", s)
		}
	}
}

// TestSitesRegistryCoversConstants: the Sites registry and the Site*
// constants cannot drift apart.
func TestSitesRegistryCoversConstants(t *testing.T) {
	wantExact := []string{SiteDeadline}
	wantPrefixes := []string{
		SiteUDFPrefix, SiteViewWritePrefix,
		SiteViewScrubPrefix, SiteViewRepairPrefix, SiteViewCompactPrefix,
		SiteViewEvictPrefix, SiteDiskFullPrefix,
		SiteIngestAppendPrefix, SiteIngestCheckpointPrefix, SiteIngestNotifyPrefix,
	}
	if fmt.Sprint(Sites.Exact) != fmt.Sprint(wantExact) {
		t.Errorf("Sites.Exact = %v, want %v", Sites.Exact, wantExact)
	}
	if fmt.Sprint(Sites.Prefixes) != fmt.Sprint(wantPrefixes) {
		t.Errorf("Sites.Prefixes = %v, want %v", Sites.Prefixes, wantPrefixes)
	}
}

// TestRetry pins the one transient-retry schedule: reruns only while
// the error is a transient fault, at most costs.RetryMaxAttempts runs,
// and the backoff of rerun k charged to the retry category before it.
func TestRetry(t *testing.T) {
	transient := fmt.Errorf("write: %w", &Fault{Kind: Transient, Site: "view:write:v"})
	permanent := &Fault{Kind: Permanent, Site: "view:write:v"}
	backoff := func(reruns int) time.Duration {
		var d time.Duration
		for k := 2; k < 2+reruns; k++ {
			d += costs.RetryBackoff(k)
		}
		return d
	}
	for _, tc := range []struct {
		name     string
		errs     []error // the error of each run; the last repeats
		wantRuns int
		wantErr  error
	}{
		{"first run succeeds", []error{nil}, 1, nil},
		{"absorbed after two faults", []error{transient, transient, nil}, 3, nil},
		{"budget exhausted", []error{transient}, costs.RetryMaxAttempts, transient},
		{"permanent is not retried", []error{permanent}, 1, permanent},
		{"permanent after a transient", []error{transient, permanent}, 2, permanent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &simclock.Clock{}
			runs := 0
			err := Retry(clock, func() error {
				e := tc.errs[min(runs, len(tc.errs)-1)]
				runs++
				return e
			})
			if runs != tc.wantRuns || err != tc.wantErr {
				t.Errorf("runs = %d, err = %v; want %d, %v", runs, err, tc.wantRuns, tc.wantErr)
			}
			if got, want := clock.Total(), backoff(tc.wantRuns-1); got != want {
				t.Errorf("charged %s, want %s", got, want)
			}
		})
	}
}
