package tinydir

// The live sweep dashboard: a small HTML page on the `-http` listener
// that polls a JSON status endpoint and renders the process's telemetry
// registry (sweep progress, store latency and integrity), the worker
// fleet (fetched from the coordinator's own /sweepd/status when the
// suite runs distributed), and the obs epoch CSVs written so far. Plain
// tables and a ~1.5s poll — the monitor's job is glanceability during a
// long sweep, not charting; the CSVs are downloadable for real analysis.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tinydir/internal/telemetry"
)

// Dashboard serves the live sweep view. Registry is the one metrics
// model it renders (the same series /metrics exposes); ObsDir is
// optional. Every gauge on Registry must stay finite: encoding/json
// cannot encode NaN or Inf.
type Dashboard struct {
	Registry *telemetry.Registry
	ObsDir   string
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
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Series []telemetry.SeriesSnapshot
			Obs    []string
		}{d.Registry.Snapshot(), d.obsFiles()})
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
<tr><th>Planned</th><th>Done</th><th>Served</th><th>Failed</th><th>Running</th><th>Elapsed</th><th>ETA</th></tr>
<tr><td class="num" id="planned">-</td><td class="num" id="done">-</td><td class="num" id="served">-</td>
<td class="num" id="failed">-</td><td class="num" id="active">-</td><td id="elapsed">-</td><td id="eta">-</td></tr>
</table>
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
<table id="storeinteg"><tr><th>Verified tier</th><th>Verified</th><th>Quarantined</th><th>Scrubbed</th><th>Scrub quarantined</th></tr></table>
</div>
<h2>Observability artifacts</h2>
<p class="muted">Each simulated run's per-epoch IPC series is in its epochs CSV.</p>
<ul id="obs"><li class="muted">none yet</li></ul>
<script>
function secs(s) {
  if (!s) return "-";
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
function renderSweep(series) {
  var v = {};
  series.forEach(function (s) { if (s.Name.indexOf("tinydir_sweep_") === 0) v[s.Name.slice(14)] = s.Value; });
  ["planned", "done", "served", "failed", "active"].forEach(function (k) {
    document.getElementById(k).textContent = v[k] || 0;
  });
  document.getElementById("elapsed").textContent = secs(v.elapsed_seconds);
  document.getElementById("eta").textContent = secs(v.eta_seconds);
}
var integCols = {
  runstore_integrity_verified_total: 0, runstore_integrity_quarantines_total: 1,
  runstore_scrub_scanned_total: 2, runstore_scrub_quarantined_total: 3
};
function renderStore(series) {
  var errs = {}, integ = {}, ops = [];
  series.forEach(function (s) {
    var b = s.Labels.backend, c = integCols[s.Name];
    if (s.Name === "runstore_op_errors_total") errs[b + "/" + s.Labels.op] = s.Value;
    if (c !== undefined) (integ[b] = integ[b] || [b, 0, 0, 0, 0])[c + 1] = s.Value;
  });
  series.forEach(function (s) { // the snapshot is sorted by name, then labels
    if (s.Name !== "runstore_op_duration_us" || !s.Hist || !s.Hist.Count) return;
    var b = s.Labels.backend, op = s.Labels.op;
    ops.push([b, op, s.Hist.Count, s.Hist.P50, s.Hist.P95, s.Hist.P99, errs[b + "/" + op] || 0]);
  });
  var rows = Object.keys(integ).sort().map(function (b) {
    var r = integ[b], q = document.createElement("span");
    q.textContent = r[2];
    if (r[2]) { q.className = "badge stale"; q.title = "corrupt entries quarantined"; }
    r[2] = q;
    return r;
  });
  document.getElementById("storesec").style.display = (ops.length || rows.length) ? "" : "none";
  setRows(document.getElementById("storeops"), ops);
  setRows(document.getElementById("storeinteg"), rows);
}
function renderObs(names) {
  var ul = document.getElementById("obs");
  ul.innerHTML = "";
  if (!names || !names.length) {
    ul.innerHTML = '<li class="muted">none yet</li>';
    return;
  }
  names.forEach(function (n) {
    var li = document.createElement("li"), a = document.createElement("a");
    a.href = "/dash/obs/" + encodeURIComponent(n);
    a.textContent = n;
    li.appendChild(a);
    ul.appendChild(li);
  });
}
function renderFleet(f) {
  document.getElementById("fleetsec").style.display = f ? "" : "none";
  if (!f) return;
  ["Pending", "Leased", "Done", "Failed", "Total", "Epoch"].forEach(function (k) {
    document.getElementById("f" + k.toLowerCase()).textContent = f[k] || 0;
  });
  var j = f.Journal || {};
  document.getElementById("journal").textContent = "journal: " + j.Dir + " — " + (j.Records || 0) +
    " records, " + (j.Bytes || 0) + " bytes, " + (j.Fsyncs || 0) + " fsyncs";
  setRows(document.getElementById("workers"),
    (f.Workers || []).map(function (w) {
      return [w.Name, (w.Active || "idle").slice(0, 12), secs(w.IdleFor / 1e9), w.Completed, w.Failed,
        w.MeanUnitWallMs ? w.MeanUnitWallMs.toFixed(0) + "ms" : "-",
        w.Report && w.Report.ExecP95Ms ? w.Report.ExecP95Ms.toFixed(0) + "ms" : "-",
        hitRate(w.Report), badges(w)];
    }));
}
function tick() {
  fetch("/dash/status").then(function (r) { return r.json(); }).then(function (st) {
    document.getElementById("err").textContent = "";
    var series = st.Series || [];
    renderSweep(series);
    renderStore(series);
    renderObs(st.Obs);
  }).catch(function (e) {
    document.getElementById("err").textContent = "status fetch failed: " + e;
  });
  // Only a -serve coordinator mounts /sweepd/; elsewhere it is a 404.
  fetch("/sweepd/status").then(function (r) {
    return r.status === 404 ? null : r.json();
  }).then(renderFleet).catch(function () { renderFleet(null); });
}
tick();
setInterval(tick, 1500);
</script>
</body>
</html>
`
