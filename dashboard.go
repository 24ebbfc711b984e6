package tinydir

// The live sweep dashboard: a small HTML page on the `-http` listener
// that polls a JSON status endpoint and renders the Reporter snapshot,
// the worker fleet (when the suite runs distributed), and the obs epoch
// CSVs written so far. Plain tables and a ~1.5s poll — the monitor's
// job is glanceability during a long sweep, not charting; the CSVs are
// downloadable for real analysis.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tinydir/internal/telemetry"
)

// Dashboard serves the live sweep view. Fleet is optional (nil for a
// purely local sweep); it returns the coordinator's sweepd.Status (typed
// as interface{} to keep the dependency one-way). ObsDir is optional.
// Registry, when set, feeds the store-health panel (backend op latency
// quantiles, cache hit rates) from the process's telemetry registry.
type Dashboard struct {
	Reporter *Reporter
	Fleet    func() interface{}
	ObsDir   string
	Registry *telemetry.Registry
}

// dashStatus is the JSON payload behind /dash/status.
type dashStatus struct {
	Sweep     SweepStatus
	Fleet     interface{}            `json:",omitempty"`
	Obs       []string               `json:",omitempty"`
	Store     []storeOpHealth        `json:",omitempty"`
	Caches    []storeCacheHealth     `json:",omitempty"`
	Integrity []storeIntegrityHealth `json:",omitempty"`
}

// storeOpHealth is one (backend, op) row of the store panel: latency
// quantiles in microseconds from the runstore_op_duration_us histogram.
type storeOpHealth struct {
	Backend, Op         string
	Count               uint64
	P50us, P95us, P99us uint64
	Errors              uint64
}

// storeCacheHealth is one cache tier's row.
type storeCacheHealth struct {
	Backend      string
	Hits, Misses uint64
	HitRate      float64
	Bytes        uint64
	Evictions    uint64
}

// storeIntegrityHealth is one verified tier's row: end-to-end seal
// verification outcomes plus scrub-pass totals. A nonzero Quarantined
// is the headline — the store served (and then quarantined) corruption.
type storeIntegrityHealth struct {
	Backend          string
	Verified         uint64
	Quarantined      uint64
	ScrubScanned     uint64
	ScrubQuarantined uint64
}

// storeHealth digests the registry's runstore_* series into panel rows.
func storeHealth(snap []telemetry.SeriesSnapshot) (ops []storeOpHealth, caches []storeCacheHealth, integ []storeIntegrityHealth) {
	errs := map[string]uint64{} // backend/op -> error count
	cacheAt := map[string]int{} // backend -> index in caches
	cache := func(backend string) *storeCacheHealth {
		i, ok := cacheAt[backend]
		if !ok {
			i = len(caches)
			caches = append(caches, storeCacheHealth{Backend: backend})
			cacheAt[backend] = i
		}
		return &caches[i]
	}
	integAt := map[string]int{} // backend -> index in integ
	verified := func(backend string) *storeIntegrityHealth {
		i, ok := integAt[backend]
		if !ok {
			i = len(integ)
			integ = append(integ, storeIntegrityHealth{Backend: backend})
			integAt[backend] = i
		}
		return &integ[i]
	}
	for _, s := range snap {
		switch s.Name {
		case "runstore_op_errors_total":
			errs[s.Label("backend")+"/"+s.Label("op")] = uint64(s.Value)
		case "runstore_cache_hits_total":
			cache(s.Label("backend")).Hits = uint64(s.Value)
		case "runstore_cache_misses_total":
			cache(s.Label("backend")).Misses = uint64(s.Value)
		case "runstore_cache_evictions_total":
			cache(s.Label("backend")).Evictions = uint64(s.Value)
		case "runstore_cache_bytes":
			cache(s.Label("backend")).Bytes = uint64(s.Value)
		case "runstore_integrity_verified_total":
			verified(s.Label("backend")).Verified = uint64(s.Value)
		case "runstore_integrity_quarantines_total":
			verified(s.Label("backend")).Quarantined = uint64(s.Value)
		case "runstore_scrub_scanned_total":
			verified(s.Label("backend")).ScrubScanned = uint64(s.Value)
		case "runstore_scrub_quarantined_total":
			verified(s.Label("backend")).ScrubQuarantined = uint64(s.Value)
		}
	}
	for _, s := range snap {
		if s.Name != "runstore_op_duration_us" || s.Hist == nil || s.Hist.Count == 0 {
			continue
		}
		b, op := s.Label("backend"), s.Label("op")
		ops = append(ops, storeOpHealth{
			Backend: b, Op: op, Count: s.Hist.Count,
			P50us: s.Hist.P50, P95us: s.Hist.P95, P99us: s.Hist.P99,
			Errors: errs[b+"/"+op],
		})
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Backend != ops[j].Backend {
			return ops[i].Backend < ops[j].Backend
		}
		return ops[i].Op < ops[j].Op
	})
	for i := range caches {
		c := &caches[i]
		if total := c.Hits + c.Misses; total > 0 {
			c.HitRate = float64(c.Hits) / float64(total)
		}
	}
	sort.Slice(caches, func(i, j int) bool { return caches[i].Backend < caches[j].Backend })
	sort.Slice(integ, func(i, j int) bool { return integ[i].Backend < integ[j].Backend })
	return ops, caches, integ
}

// Register mounts the dashboard on mux: the page at /, the JSON feed at
// /dash/status, and obs epoch CSVs at /dash/obs/<name>.
func (d *Dashboard) Register(mux *http.ServeMux) {
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	})
	mux.HandleFunc("/dash/status", func(w http.ResponseWriter, r *http.Request) {
		st := dashStatus{Obs: d.obsFiles()}
		if d.Reporter != nil {
			st.Sweep = d.Reporter.Snapshot()
		}
		if d.Fleet != nil {
			st.Fleet = d.Fleet()
		}
		if d.Registry != nil {
			st.Store, st.Caches, st.Integrity = storeHealth(d.Registry.Snapshot())
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/dash/obs/", func(w http.ResponseWriter, r *http.Request) {
		name := filepath.Base(strings.TrimPrefix(r.URL.Path, "/dash/obs/"))
		// Base() strips any traversal; the suffix check keeps this to the
		// epoch CSVs the dashboard lists, not arbitrary ObsDir contents.
		if d.ObsDir == "" || !strings.HasSuffix(name, ".epochs.csv") {
			http.NotFound(w, r)
			return
		}
		b, err := os.ReadFile(filepath.Join(d.ObsDir, name))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Write(b)
	})
}

// obsFiles lists the epoch CSVs written so far, newest-name-last.
func (d *Dashboard) obsFiles() []string {
	if d.ObsDir == "" {
		return nil
	}
	entries, err := os.ReadDir(d.ObsDir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".epochs.csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>tinydir sweep</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; }
th { background: #f3f3f3; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.muted { color: #888; }
#err { color: #b00; }
.badge { display: inline-block; padding: 0 .4em; border-radius: .6em; font-size: .85em; color: #fff; margin-left: .3em; }
.straggler { background: #c80; }
.stale { background: #b00; }
</style>
</head>
<body>
<h1>tinydir sweep monitor</h1>
<p id="err"></p>
<h2>Sweep</h2>
<table id="sweep">
<tr><th>Planned</th><th>Done</th><th>Served</th><th>Failed</th><th>Elapsed</th><th>ETA</th></tr>
<tr><td class="num" id="planned">-</td><td class="num" id="done">-</td><td class="num" id="served">-</td>
<td class="num" id="failed">-</td><td id="elapsed">-</td><td id="eta">-</td></tr>
</table>
<h2>Active runs</h2>
<table id="active"><tr><th>Run</th><th>IPC</th></tr></table>
<div id="fleetsec" style="display:none">
<h2>Fleet</h2>
<table id="fleetsum">
<tr><th>Pending</th><th>Leased</th><th>Done</th><th>Failed</th><th>Total</th><th>Epoch</th></tr>
<tr><td class="num" id="fpending">-</td><td class="num" id="fleased">-</td><td class="num" id="fdone">-</td>
<td class="num" id="ffailed">-</td><td class="num" id="ftotal">-</td><td class="num" id="fepoch">-</td></tr>
</table>
<p id="journal" class="muted"></p>
<table id="workers"><tr><th>Worker</th><th>Active unit</th><th>Idle</th><th>Completed</th><th>Failed</th>
<th>Mean wall</th><th>Exec p95</th><th>Cache hit%</th><th>Health</th></tr></table>
</div>
<div id="storesec" style="display:none">
<h2>Store health</h2>
<table id="storeops"><tr><th>Backend</th><th>Op</th><th>Count</th><th>p50 µs</th><th>p95 µs</th><th>p99 µs</th><th>Errors</th></tr></table>
<table id="storecaches"><tr><th>Cache</th><th>Hits</th><th>Misses</th><th>Hit rate</th><th>Bytes</th><th>Evictions</th></tr></table>
<table id="storeinteg"><tr><th>Verified tier</th><th>Verified</th><th>Quarantined</th><th>Scrubbed</th><th>Scrub quarantined</th></tr></table>
</div>
<h2>Observability artifacts</h2>
<ul id="obs"><li class="muted">none yet</li></ul>
<script>
function ns(v) { // Go time.Duration arrives as nanoseconds
  if (!v) return "-";
  var s = v / 1e9;
  if (s < 60) return s.toFixed(1) + "s";
  return Math.floor(s / 60) + "m" + Math.round(s % 60) + "s";
}
function setRows(table, rows) {
  while (table.rows.length > 1) table.deleteRow(1);
  rows.forEach(function (cells) {
    var tr = table.insertRow();
    cells.forEach(function (c) {
      var td = tr.insertCell();
      if (c && c.nodeType) td.appendChild(c); else td.textContent = c;
    });
  });
}
function badges(w) { // straggler/stale flags -> colored badge pills
  var span = document.createElement("span");
  if (w.Straggler) {
    var b = document.createElement("span");
    b.className = "badge straggler"; b.textContent = "straggler";
    b.title = "mean unit wall exceeds 3x the fleet median";
    span.appendChild(b);
  }
  if (w.Stale) {
    var b2 = document.createElement("span");
    b2.className = "badge stale"; b2.textContent = "stale";
    b2.title = "not heard from in over a lease TTL";
    span.appendChild(b2);
  }
  if (!span.childNodes.length) span.textContent = "ok";
  return span;
}
function hitRate(rep) {
  if (!rep) return "-";
  var total = (rep.StoreHits || 0) + (rep.StoreMisses || 0);
  return total ? ((rep.StoreHits || 0) * 100 / total).toFixed(0) + "%" : "-";
}
function tick() {
  fetch("/dash/status").then(function (r) { return r.json(); }).then(function (st) {
    document.getElementById("err").textContent = "";
    var s = st.Sweep || {};
    ["Planned", "Done", "Served", "Failed"].forEach(function (k) {
      document.getElementById(k.toLowerCase()).textContent = s[k] || 0;
    });
    document.getElementById("elapsed").textContent = ns(s.Elapsed);
    document.getElementById("eta").textContent = ns(s.ETA);
    setRows(document.getElementById("active"),
      (s.Active || []).map(function (a) { return [a.Name, a.IPC ? a.IPC.toFixed(3) : "-"]; }));
    var f = st.Fleet;
    document.getElementById("fleetsec").style.display = f ? "" : "none";
    if (f) {
      ["Pending", "Leased", "Done", "Failed", "Total", "Epoch"].forEach(function (k) {
        document.getElementById("f" + k.toLowerCase()).textContent = f[k] || 0;
      });
      var j = f.Journal || {};
      document.getElementById("journal").textContent = "journal: " + j.Dir + " — " + (j.Records || 0) +
        " records, " + (j.Bytes || 0) + " bytes, " + (j.Fsyncs || 0) + " fsyncs";
      setRows(document.getElementById("workers"),
        (f.Workers || []).map(function (w) {
          return [w.Name, (w.Active || "idle").slice(0, 12), ns(w.IdleFor), w.Completed, w.Failed,
            w.MeanUnitWallMs ? w.MeanUnitWallMs.toFixed(0) + "ms" : "-",
            w.Report && w.Report.ExecP95Ms ? w.Report.ExecP95Ms.toFixed(0) + "ms" : "-",
            hitRate(w.Report), badges(w)];
        }));
    }
    var ops = st.Store || [], caches = st.Caches || [], integ = st.Integrity || [];
    document.getElementById("storesec").style.display = (ops.length || caches.length || integ.length) ? "" : "none";
    setRows(document.getElementById("storeops"), ops.map(function (o) {
      return [o.Backend, o.Op, o.Count, o.P50us, o.P95us, o.P99us, o.Errors];
    }));
    setRows(document.getElementById("storecaches"), caches.map(function (c) {
      return [c.Backend, c.Hits, c.Misses, (c.HitRate * 100).toFixed(0) + "%", c.Bytes, c.Evictions];
    }));
    setRows(document.getElementById("storeinteg"), integ.map(function (v) {
      var q = document.createElement("span");
      q.textContent = v.Quarantined || 0;
      if (v.Quarantined) { q.className = "badge stale"; q.title = "corrupt entries quarantined"; }
      return [v.Backend, v.Verified, q, v.ScrubScanned, v.ScrubQuarantined];
    }));
    var ul = document.getElementById("obs");
    ul.innerHTML = "";
    if (!st.Obs || !st.Obs.length) {
      ul.innerHTML = '<li class="muted">none yet</li>';
    } else {
      st.Obs.forEach(function (n) {
        var li = document.createElement("li"), a = document.createElement("a");
        a.href = "/dash/obs/" + encodeURIComponent(n);
        a.textContent = n;
        li.appendChild(a);
        ul.appendChild(li);
      });
    }
  }).catch(function (e) {
    document.getElementById("err").textContent = "status fetch failed: " + e;
  });
}
tick();
setInterval(tick, 1500);
</script>
</body>
</html>
`
