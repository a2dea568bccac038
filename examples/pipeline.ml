(* A data-parallel pipeline in the paper's idiom (§3.4): matrix data lives
   on worker processors; the master pulls results with promise-pipelined
   queries.

   This is a miniature of the Cowichan `chain` benchmark: generate a
   random matrix in parallel, histogram it, and report the threshold that
   keeps the top 1% — all data movement goes through the SCOOP runtime,
   race-free by construction.  The pull stage issues one [query_async]
   per worker and only then forces the promises, so the k histogram
   round trips overlap instead of serializing: the master waits for the
   slowest worker once, not for each worker in turn.  The runtime
   statistics printed at the end count the pipelined queries and how
   many were already resolved when forced.

   Run with:  dune exec examples/pipeline.exe *)

module C = Qs_workloads.Cowichan

let () =
  let nr = 120 and seed = 9 and p = 1 and workers = 4 in
  Scoop.run ~domains:2 ~config:Scoop.Config.all (fun rt ->
    let stats = Scoop.Runtime.stats rt in
    let before = Scoop.Stats.assoc stats in
    (* Each worker owns a chunk of rows. *)
    let chunks =
      List.map
        (fun (lo, hi) ->
          let proc = Scoop.Runtime.processor rt in
          let arr = Array.make ((hi - lo) * nr) 0 in
          (proc, lo, hi, arr, Scoop.Shared.create proc arr))
        (Qs_benchmarks.Bench_types.split nr workers)
    in
    (* Stage 1: generate rows in parallel (asynchronous calls). *)
    List.iter
      (fun (proc, lo, hi, arr, _) ->
        Scoop.Runtime.separate rt proc (fun reg ->
          Scoop.Registration.call reg (fun () ->
            C.randmat_chunk ~seed ~nr ~lo ~hi arr)))
      chunks;
    (* Stage 2: fan the histogram queries out as promises — each worker
       histograms its own chunk behind the still-pending randmat call —
       then force them all.  [Promise.all] costs the slowest worker. *)
    let promises =
      List.map
        (fun (proc, lo, hi, arr, _) ->
          Scoop.Runtime.separate rt proc (fun reg ->
            Scoop.Registration.query_async reg (fun () ->
              C.thresh_hist ~nr arr ~lo:0 ~hi:(hi - lo))))
        chunks
    in
    let hist = Array.make C.modulus 0 in
    List.iter
      (Array.iteri (fun v n -> hist.(v) <- hist.(v) + n))
      (Scoop.Promise.await (Scoop.Promise.all promises));
    let threshold = C.thresh_threshold ~hist ~total:(nr * nr) ~p in
    Printf.printf "top %d%% threshold of the %dx%d matrix: %d\n" p nr nr
      threshold;
    (* Validate against the sequential reference. *)
    let reference, _ = C.thresh ~nr (C.randmat ~seed ~nr) ~p in
    assert (threshold = reference);
    let d = Qs_obs.Counter.diff (Scoop.Stats.assoc stats) before in
    Format.printf "runtime activity for the pipeline:@.%a@."
      Qs_obs.Counter.pp_snapshot d;
    Format.printf "pipelined overlap ratio: %.2f@."
      (Scoop.Stats.overlap_ratio d))
