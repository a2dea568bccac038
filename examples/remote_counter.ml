(* Distributed quickstart: the same separate-block program against a
   processor living in another scheduler, behind a unix socket.

   The only change from the in-process quickstart is the configuration —
   [Scoop.Remote.connect] instead of the default endpoint — plus the
   distributed runtime's state discipline: handler state lives in
   module-level globals, because shipped closures execute against the
   *node's* globals (Marshal.Closures ships code, not captured state).
   Here the node is self-hosted on a second domain; point [addr] at a
   `qs node` process on another machine and nothing else changes.

   Run with:  dune exec examples/remote_counter.exe *)

let counter = Atomic.make 0

let () =
  let path =
    Printf.sprintf "%s/qs_example_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let addr = Scoop.Config.Unix_sock path in
  (* The hosting half: one `qs node` worth of runtime on its own domain. *)
  let node = Domain.spawn (fun () -> Scoop.Remote.listen addr) in
  Scoop.Runtime.run
    ~config:(Scoop.Remote.connect [ addr ])
    (fun rt ->
      let handler = Scoop.Runtime.processor rt in
      let observed =
        Scoop.Runtime.separate rt handler (fun reg ->
          (* Ten asynchronous calls cross the socket without waiting... *)
          for _ = 1 to 10 do
            Scoop.Registration.call reg (fun () -> Atomic.incr counter)
          done;
          (* ...and the query's round trip observes all of them: the node
             serves this registration's stream in order. *)
          Scoop.Registration.query reg (fun () -> Atomic.get counter))
      in
      assert (observed = 10);
      let st = Scoop.Runtime.stats rt in
      let requests = Qs_obs.Counter.get st.Scoop.Stats.remote_requests in
      assert (requests > 0);
      let rtt =
        Qs_obs.Histogram.dist (Scoop.Stats.histograms st) "query_remote_ns"
      in
      Printf.printf
        "remote counter reached %d over %d wire requests (rtt p50 %.2f ms, \
         p99 %.2f ms)\n"
        observed requests
        (float_of_int (Qs_obs.Histogram.quantile rtt 0.5) /. 1e6)
        (float_of_int (Qs_obs.Histogram.quantile rtt 0.99) /. 1e6);
      (* Self-hosted on a domain, node and client share this process's
         globals; against a separate `qs node` process the increments
         would land on the node's copy and ours would stay 0. *)
      Scoop.Runtime.shutdown_nodes rt);
  Domain.join node
