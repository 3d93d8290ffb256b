package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
)

// The calls reported per layer.
var (
	fsReported   = []call{fsCreate, fsOpen, fsStat, fsMkdir, fsRmdir, fsReadDir, fsRename, fsUnlink, fsReadAt, fsWriteAt, fsClose}
	fsNamespace  = []call{fsCreate, fsOpen, fsStat, fsMkdir, fsRmdir, fsReadDir, fsRename, fsUnlink}
	blobReported = []call{blobCreate, blobDelete, blobRead, blobWrite, blobTruncate, blobSize, blobScan, blobRename}
	background   = []call{blobCheckpointAll, blobCrash, blobRecover, blobCheckInvariants}
)

// perLayer computes the per-layer metrics of the traced window. GC figures
// come from the untraced window base, since tracing allocates; everything
// else comes from the traced window.
func perLayer(w workload, spans []span, base, traced *result) ([]metric, error) {
	kids := childIndex(spans)
	at, err := attribute(spans, kids)
	if err != nil {
		return nil, err
	}
	var byCall [numCalls][]int32
	sparkKids := 0
	for i, sp := range spans {
		byCall[sp.call] = append(byCall[sp.call], int32(i))
		if sp.layer == layerBlobfs && sp.parent >= 0 && spans[sp.parent].call == callJob {
			sparkKids++
		}
	}
	ops := float64(len(byCall[callOp]))
	jobs := float64(len(byCall[callJob]))
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	durations := func(c call) []int64 {
		out := make([]int64, len(byCall[c]))
		for i, s := range byCall[c] {
			out[i] = spans[s].end - spans[s].start
		}
		return out
	}

	add("sparksim.self_ms_per_job", ratio(at.self[layerSparksim]/1e6, jobs), "ms")
	add("sparksim.blobfs_calls_per_job", ratio(float64(sparkKids), jobs), "count")

	for _, c := range fsReported {
		add("blobfs."+callNames[c]+".count_per_op", float64(len(byCall[c]))/ops, "count")
		add("blobfs."+callNames[c]+".us_p50", median(durations(c))/1e3, "us")
	}
	for _, c := range fsNamespace {
		blobCalls := 0
		for _, s := range byCall[c] {
			for _, k := range kids.of(s) {
				if spans[k].layer == layerBlob {
					blobCalls++
				}
			}
		}
		add("blobfs."+callNames[c]+".blob_calls", ratio(float64(blobCalls), float64(len(byCall[c]))), "count")
	}
	add("blobfs.self_us_per_op", at.self[layerBlobfs]/1e3/ops, "us")

	var blobBytes float64
	for _, c := range blobReported {
		failed := 0
		vd := make([]int64, len(byCall[c]))
		for i, s := range byCall[c] {
			vd[i] = spans[s].vdur
			blobBytes += float64(spans[s].bytes)
			if spans[s].failed {
				failed++
			}
		}
		d := durations(c)
		t, _ := tail(d)
		name := "blob." + callNames[c]
		add(name+".count_per_op", float64(len(byCall[c]))/ops, "count")
		add(name+".us_p50", median(d)/1e3, "us")
		add(name+".us_tail", t/1e3, "us")
		add(name+".vus_p50", median(vd)/1e3, "us")
		add(name+".failed", float64(failed), "count")
	}
	multi := 0
	for _, s := range byCall[blobWrite] {
		if spans[s].multichunk {
			multi++
		}
	}
	add("blob.WriteBlob.multichunk_share", ratio(float64(multi), float64(len(byCall[blobWrite]))), "ratio")
	add("blob.bytes_per_op", blobBytes/ops, "B")

	var stall time.Duration
	for _, c := range background {
		for _, d := range durations(c) {
			stall += time.Duration(d)
		}
	}
	add("blob.CheckpointAll.ms", median(durations(blobCheckpointAll))/1e6, "ms")
	add("blob.CheckpointAll.count", float64(len(byCall[blobCheckpointAll])), "count")
	add("blob.Recover.ms", median(durations(blobRecover))/1e6, "ms")
	add("blob.stall_ms_per_s", float64(stall)/1e6/traced.elapsed.Seconds(), "ms/s")

	m := traced.m
	var recoverTime time.Duration
	for _, d := range m.recoveries {
		recoverTime += d
	}
	add("wal.bytes_per_user_byte", ratio(float64(m.walGrowth), float64(m.walGrowthUser)), "ratio")
	add("wal.ckpt_bytes_rewritten", median(append([]int64(nil), m.walRewritten...)), "B")
	add("wal.recover_mb_per_s", ratio(float64(m.recoverBytes)/1e6, recoverTime.Seconds()), "MB/s")

	store := w.env().store
	var chunks, descs []float64
	for i := 0; i < clusterNodes; i++ {
		chunks = append(chunks, float64(store.ChunkCount(cluster.NodeID(i))))
		descs = append(descs, float64(store.DescriptorCount(cluster.NodeID(i))))
	}
	add("chash.chunk_imbalance", imbalance(chunks), "ratio")
	add("chash.desc_imbalance", imbalance(descs), "ratio")

	vspan := traced.virtSpan()
	for k, kind := range resKinds {
		var ops64 int64
		var busy, busiest time.Duration
		for i := 0; i < clusterNodes; i++ {
			d := traced.end.res[i][k].busy - traced.start.res[i][k].busy
			ops64 += traced.end.res[i][k].ops - traced.start.res[i][k].ops
			busy += d
			busiest = max(busiest, d)
		}
		add("cluster."+kind+".ops_per_op", float64(ops64)/ops, "count")
		add("cluster."+kind+".busy_ms_per_op", float64(busy)/1e6/ops, "ms")
		add("cluster."+kind+".busiest_util", ratio(float64(busiest), float64(vspan)), "ratio")
	}

	secs := base.elapsed.Seconds()
	add("gc.cycles_per_s", float64(base.end.gcCycles-base.start.gcCycles)/secs, "1/s")
	add("gc.pause_ms_per_s", float64(base.end.gcPause-base.start.gcPause)/1e6/secs, "ms/s")
	add("gc.cpu_share", ratio(base.end.gcCPU-base.start.gcCPU, (base.end.cpu-base.start.cpu).Seconds()), "ratio")

	add("trace.overhead", traced.opsPerSec()/base.opsPerSec(), "ratio")
	add("trace.unattributed_share", at.unattributed(), "ratio")

	if err := at.check(); err != nil {
		return out, err
	}
	if u := at.unattributed(); u > unattributedBound {
		return out, fmt.Errorf("unattributed share %.3f exceeds %.2f", u, unattributedBound)
	}
	if jobs > 0 && len(byCall[blobRename]) == 0 {
		return out, fmt.Errorf("spark jobs made no RenameBlob call: the traced store hides storage.BlobRenamer")
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the max/mean ratio of xs.
func imbalance(xs []float64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	return ratio(hi, sum/float64(len(xs)))
}

// writeSpans writes the span log as gzipped tab-separated rows, one span a
// line: index, parent, layer, call, start and end (ns since the tracer
// started), virtual duration (ns), bytes, failed.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	bw.WriteString("idx\tparent\tlayer\tcall\tstart_ns\tend_ns\tvdur_ns\tbytes\tfailed\n")
	var line []byte
	for i, sp := range spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = strconv.AppendInt(append(line, '\t'), int64(sp.parent), 10)
		line = append(append(line, '\t'), layerNames[sp.layer]...)
		line = append(append(line, '\t'), callNames[sp.call]...)
		for _, v := range []int64{sp.start, sp.end, sp.vdur, sp.bytes} {
			line = strconv.AppendInt(append(line, '\t'), v, 10)
		}
		line = strconv.AppendBool(append(line, '\t'), sp.failed)
		bw.Write(append(line, '\n'))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
