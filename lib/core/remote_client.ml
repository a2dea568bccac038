(* Client half of the distributed runtime: one connection per node, a
   demultiplexer fiber per connection, and per-registration proxies
   implementing [Processor.reg_proxy].

   The proxy speaks the same Mailbox-shaped interface the in-process
   registration does, so call / query / query_async / sync, typed
   completions, [?timeout] and the dirty-processor rule all work
   unchanged against a processor living on a node:

   - calls are fire-and-forget [Rcall] frames (the logged side of the
     separate rule, now a socket write instead of a private-queue push;
     a burst of them from one dispatch shares one write);
   - blocking queries and syncs flush the connection, then park the
     client fiber on an ivar the demultiplexer fills when the
     completion frame arrives;
   - pipelined queries hand back a promise the demultiplexer fulfils —
     k remote queries in flight overlap their round trips exactly like
     the in-process flavour overlaps handler executions;
   - a handler failure on the node arrives as [Rpoisoned] *in stream
     order*, so the client observes it at the same sync point the
     in-process runtime would surface it.

   Connection loss is a poison event: every open registration on the
   connection is poisoned with [Connection_lost] and every outstanding
   rendezvous is rejected with it — a waiting client gets a typed
   failure, never a hang. *)

module SQ = Qs_remote.Socket_queue

type pending =
  | Blocked of Obj.t Qs_sched.Ivar.t (* a blocking query's rendezvous *)
  | Promised of { p : Obj.t Qs_sched.Promise.t; birth : int }
      (* a pipelined query's promise, with its issue stamp (ns) so the
         demultiplexer can fold the wire round trip into the remote
         pipelined latency histogram at fulfilment *)

type conn = {
  label : string; (* "unix:..." / "tcp:...", for errors and stats *)
  fd : Unix.file_descr;
  send_q : Remote_proto.client_msg SQ.t;
  recv_q : Remote_proto.node_msg SQ.t;
  lock : Mutex.t; (* guards the tables, [lost] and [closing] *)
  pending : (int, pending) Hashtbl.t; (* qid -> rendezvous *)
  syncs : (int, unit Qs_sched.Ivar.t) Hashtbl.t; (* sid -> sync latch *)
  poisons : (int, exn -> Printexc.raw_backtrace -> unit) Hashtbl.t;
      (* reg -> the registration's poison completion *)
  mutable lost : bool;
  mutable closing : bool; (* orderly teardown: EOF is expected, not a loss *)
  next_qid : int Atomic.t;
  next_sid : int Atomic.t;
  next_reg : int Atomic.t;
  stats : Stats.t;
}

type t = { conns : conn array }

let with_lock conn f =
  Mutex.lock conn.lock;
  match f () with
  | v ->
    Mutex.unlock conn.lock;
    v
  | exception e ->
    Mutex.unlock conn.lock;
    raise e

(* Tear the connection down: mark it lost, then resolve every observer
   outside the lock — poison callbacks first (so a rejected waiter that
   races ahead already finds its registration poisoned), then pending
   rendezvous and sync latches.  Idempotent; an orderly [close] sets
   [closing] first, which suppresses the failure accounting (EOF after
   [Bye] is the protocol working, not breaking). *)
let connection_lost conn =
  let e = Remote_proto.Connection_lost conn.label in
  let bt = Printexc.get_callstack 0 in
  let observers =
    with_lock conn (fun () ->
      if conn.lost then None
      else begin
        conn.lost <- true;
        let cbs = Hashtbl.fold (fun _ cb acc -> cb :: acc) conn.poisons [] in
        let pend = Hashtbl.fold (fun _ p acc -> p :: acc) conn.pending [] in
        let syn = Hashtbl.fold (fun _ iv acc -> iv :: acc) conn.syncs [] in
        Hashtbl.reset conn.poisons;
        Hashtbl.reset conn.pending;
        Hashtbl.reset conn.syncs;
        Some (conn.closing, cbs, pend, syn)
      end)
  in
  match observers with
  | None -> ()
  | Some (closing, cbs, pend, syn) ->
    if not closing then
      Qs_obs.Counter.incr conn.stats.Stats.remote_failures;
    List.iter (fun cb -> cb e bt) cbs;
    List.iter
      (function
        | Blocked iv -> ignore (Qs_sched.Ivar.try_fill_error ~bt iv e : bool)
        | Promised { p; _ } ->
          ignore (Qs_sched.Promise.try_fulfill_error ~bt p e : bool))
      pend;
    List.iter
      (fun iv -> ignore (Qs_sched.Ivar.try_fill_error ~bt iv e : bool))
      syn

let on_closed conn write =
  match write () with
  | () -> ()
  | exception SQ.Closed ->
    connection_lost conn;
    raise (Remote_proto.Connection_lost conn.label)

let send conn msg =
  if conn.lost then raise (Remote_proto.Connection_lost conn.label);
  on_closed conn (fun () -> SQ.enqueue conn.send_q msg)

(* For a frame something waits on — a blocking round trip's request, or
   the node shutdown a caller may block on outside the scheduler: a
   frame appended behind its dispatch's earlier ones would otherwise sit
   in the buffer until the deferred flush runs. *)
let send_now conn msg =
  send conn msg;
  on_closed conn (fun () -> SQ.flush conn.send_q)

(* -- Demultiplexer --------------------------------------------------------
   One fiber per connection: blocks on the receive queue (parking on fd
   readability via the scheduler's poller) and routes each completion to
   its waiter.  Runs until EOF or a torn frame, then declares the
   connection lost and closes the descriptor. *)

let handle conn = function
  | Remote_proto.Rresult { qid; v } -> (
    Qs_obs.Counter.incr conn.stats.Stats.remote_replies;
    match with_lock conn (fun () ->
        let p = Hashtbl.find_opt conn.pending qid in
        Hashtbl.remove conn.pending qid;
        p)
    with
    | Some (Blocked iv) -> ignore (Qs_sched.Ivar.try_fill iv v : bool)
    | Some (Promised { p; birth }) ->
      Qs_obs.Histogram.record conn.stats.Stats.h_pipelined_remote
        (Qs_obs.Clock.now_ns () - birth);
      ignore (Qs_sched.Promise.try_fulfill p v : bool)
    | None -> () (* rendezvous abandoned (timed out) — drop the late result *))
  | Rfailed { qid; msg } -> (
    Qs_obs.Counter.incr conn.stats.Stats.remote_replies;
    let e = Remote_proto.Remote_error msg in
    match with_lock conn (fun () ->
        let p = Hashtbl.find_opt conn.pending qid in
        Hashtbl.remove conn.pending qid;
        p)
    with
    | Some (Blocked iv) -> ignore (Qs_sched.Ivar.try_fill_error iv e : bool)
    | Some (Promised { p; birth }) ->
      (* A failed round trip is still a completed one: fold it in. *)
      Qs_obs.Histogram.record conn.stats.Stats.h_pipelined_remote
        (Qs_obs.Clock.now_ns () - birth);
      ignore (Qs_sched.Promise.try_fulfill_error p e : bool)
    | None -> ())
  | Rsynced { sid } -> (
    Qs_obs.Counter.incr conn.stats.Stats.remote_replies;
    match with_lock conn (fun () ->
        let iv = Hashtbl.find_opt conn.syncs sid in
        Hashtbl.remove conn.syncs sid;
        iv)
    with
    | Some iv -> ignore (Qs_sched.Ivar.try_fill iv () : bool)
    | None -> ())
  | Rpoisoned { reg; msg } -> (
    (* The node-side handler failed a call this registration logged: the
       dirty-processor rule crossing the connection.  The callback CASes
       the registration's poison atomic, so duplicates are harmless. *)
    match with_lock conn (fun () -> Hashtbl.find_opt conn.poisons reg) with
    | Some cb ->
      cb (Remote_proto.Remote_error msg) (Printexc.get_callstack 0)
    | None -> ())

let rec demux conn =
  match SQ.dequeue conn.recv_q with
  | Some msg ->
    handle conn msg;
    demux conn
  | None -> connection_lost conn
  | exception SQ.Truncated_frame -> connection_lost conn
  | exception _ -> connection_lost conn

(* -- Per-registration proxy ----------------------------------------------- *)

let open_reg conn ~proc =
  let reg = Atomic.fetch_and_add conn.next_reg 1 in
  let stats = conn.stats in
  let poison_cb = ref (fun (_ : exn) (_ : Printexc.raw_backtrace) -> ()) in
  with_lock conn (fun () ->
    if conn.lost then raise (Remote_proto.Connection_lost conn.label);
    Hashtbl.replace conn.poisons reg (fun e bt -> !poison_cb e bt));
  send conn (Remote_proto.Open { reg; proc });
  let px_call f =
    Qs_obs.Counter.incr stats.Stats.remote_requests;
    send conn (Remote_proto.Rcall { reg; f })
  in
  let px_query ~timeout f =
    Qs_obs.Counter.incr stats.Stats.remote_requests;
    (* Issue stamp *before* the wire write, so the recorded round trip
       includes serialization and any transport backpressure — the
       remote analogue of a local request's birth stamp. *)
    let birth = Qs_obs.Clock.now_ns () in
    let qid = Atomic.fetch_and_add conn.next_qid 1 in
    let iv = Qs_sched.Ivar.create () in
    with_lock conn (fun () ->
      if conn.lost then raise (Remote_proto.Connection_lost conn.label);
      Hashtbl.replace conn.pending qid (Blocked iv));
    (try send_now conn (Remote_proto.Rquery { reg; qid; f })
     with e ->
       with_lock conn (fun () -> Hashtbl.remove conn.pending qid);
       raise e);
    let outcome =
      match timeout with
      | None -> Some (Qs_sched.Ivar.result iv)
      | Some dt -> Qs_sched.Ivar.result_timeout iv dt
    in
    (* Completed round trips (including failed ones) fold into the
       remote query histogram; timeouts abandon the rendezvous without
       recording — the deadline is accounted separately. *)
    if Option.is_some outcome then
      Qs_obs.Histogram.record stats.Stats.h_query_remote
        (Qs_obs.Clock.now_ns () - birth);
    match outcome with
    | Some (Ok v) -> v
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None ->
      (* Abandon the rendezvous: dropping the table entry makes the
         eventual [Rresult] a no-op (the request is still served
         node-side, same contract as an in-process timed-out query). *)
      with_lock conn (fun () -> Hashtbl.remove conn.pending qid);
      raise Qs_sched.Timer.Timeout
  in
  let px_query_async f ~on_force =
    Qs_obs.Counter.incr stats.Stats.remote_requests;
    let birth = Qs_obs.Clock.now_ns () in
    let qid = Atomic.fetch_and_add conn.next_qid 1 in
    let p = Qs_sched.Promise.create ~on_force () in
    with_lock conn (fun () ->
      if conn.lost then
        ignore
          (Qs_sched.Promise.try_fulfill_error p
             (Remote_proto.Connection_lost conn.label)
            : bool)
      else Hashtbl.replace conn.pending qid (Promised { p; birth }));
    if not (Qs_sched.Promise.is_resolved p) then begin
      try send conn (Remote_proto.Rquery { reg; qid; f })
      with e ->
        with_lock conn (fun () -> Hashtbl.remove conn.pending qid);
        ignore (Qs_sched.Promise.try_fulfill_error p e : bool)
    end;
    p
  in
  let px_sync ~timeout =
    Qs_obs.Counter.incr stats.Stats.remote_requests;
    let birth = Qs_obs.Clock.now_ns () in
    let sid = Atomic.fetch_and_add conn.next_sid 1 in
    let iv = Qs_sched.Ivar.create () in
    with_lock conn (fun () ->
      if conn.lost then raise (Remote_proto.Connection_lost conn.label);
      Hashtbl.replace conn.syncs sid iv);
    (try send_now conn (Remote_proto.Rsync { reg; sid })
     with e ->
       with_lock conn (fun () -> Hashtbl.remove conn.syncs sid);
       raise e);
    let outcome =
      match timeout with
      | None -> Some (Qs_sched.Ivar.result iv)
      | Some dt -> Qs_sched.Ivar.result_timeout iv dt
    in
    (* Syncs are blocking remote round trips too: same histogram as
       remote queries (this pair replaced the summed [remote_rtt_ns]). *)
    if Option.is_some outcome then
      Qs_obs.Histogram.record stats.Stats.h_query_remote
        (Qs_obs.Clock.now_ns () - birth);
    match outcome with
    | Some (Ok ()) -> ()
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None ->
      with_lock conn (fun () -> Hashtbl.remove conn.syncs sid);
      raise Qs_sched.Timer.Timeout
  in
  let px_close () =
    (* Drop the poison callback with the registration: after [close] the
       only remaining consumer is the block-exit poison check, which
       reads what was already recorded — a failure the node reports
       later is missed exactly like the in-process runtime's
       best-effort exit check misses a not-yet-executed failing call. *)
    with_lock conn (fun () -> Hashtbl.remove conn.poisons reg);
    if not conn.lost then
      try send conn (Remote_proto.Rclose { reg })
      with Remote_proto.Connection_lost _ -> ()
  in
  let px_on_poison cb = poison_cb := cb in
  {
    Processor.px_call;
    px_query;
    px_query_async;
    px_sync;
    px_close;
    px_on_poison;
  }

(* -- Connection lifecycle ------------------------------------------------- *)

let open_conn ~stats addr =
  let label = Config.addr_to_string addr in
  let fd = Remote_proto.connect_to addr in
  (* One duplex descriptor wrapped twice: a send-only queue for requests
     and a receive-only queue for completions.  Both directions marshal
     under [Closures] — requests ship producers, completions may carry
     closure-valued results. *)
  let send_q =
    SQ.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
  in
  let recv_q =
    SQ.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
  in
  let conn =
    {
      label;
      fd;
      send_q;
      recv_q;
      lock = Mutex.create ();
      pending = Hashtbl.create 64;
      syncs = Hashtbl.create 16;
      poisons = Hashtbl.create 16;
      lost = false;
      closing = false;
      next_qid = Atomic.make 0;
      next_sid = Atomic.make 0;
      next_reg = Atomic.make 0;
      stats;
    }
  in
  SQ.enqueue send_q (Remote_proto.hello ());
  Qs_sched.Sched.spawn (fun () ->
    demux conn;
    try Unix.close conn.fd with Unix.Unix_error _ -> ());
  conn

let connect ~stats addrs =
  { conns = Array.of_list (List.map (open_conn ~stats) addrs) }

(* Static shard map: processor [id] lives on node [id mod n]. *)
let route t id = t.conns.(id mod Array.length t.conns)
let conn_label conn = conn.label

(* Ask every connected node process to stop serving (the remote
   lifecycle hook behind [Scoop.Remote.shutdown_nodes]). *)
let shutdown_nodes t =
  Array.iter
    (fun conn ->
      if not conn.lost then
        try send_now conn Remote_proto.Shutdown
        with Remote_proto.Connection_lost _ -> ())
    t.conns

(* Orderly teardown: announce [Bye], half-close the send side (after
   the buffered frames; the node reads EOF after the last frame and
   tears its end down), and force the
   demultiplexer's pending read to EOF so runtime shutdown never waits
   on a node that died without closing. *)
let close t =
  Array.iter
    (fun conn ->
      if not conn.lost then begin
        conn.closing <- true;
        (try send conn Remote_proto.Bye
         with Remote_proto.Connection_lost _ -> ());
        SQ.close_writer conn.send_q;
        try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ()
      end)
    t.conns
