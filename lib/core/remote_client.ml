(* Client half of the distributed runtime: one connection per node, a
   demultiplexer fiber per connection, and, for each remote registration,
   the enqueue that logs its requests into the connection.

   A remote registration is an ordinary [Registration] whose enqueue is
   [open_reg]'s result.  It is handed the same [Request.t] values a local
   handler drains from a private queue, so call / query / query_async /
   sync, typed completions, [?timeout] and the dirty-processor rule take
   one request path whichever side of a socket the handler is on:

   - a [Call] is a fire-and-forget [Rcall] frame (the logged side of the
     separate rule, now a socket write instead of a private-queue push;
     a burst of them from one dispatch shares one write);
   - a [Query] or [Pipelined] request parks its own ivar or promise in
     the connection's pending table and ships [Rquery]; the
     demultiplexer fills it when the completion frame arrives, so k
     pipelined queries overlap their round trips exactly like the
     in-process flavour overlaps handler executions;
   - a [Sync] parks its resumer there and ships [Rsync];
   - a handler failure on the node arrives as [Rpoisoned] *in stream
     order*, so the client observes it at the same sync point the
     in-process runtime would surface it.

   Connection loss is a poison event: every open registration on the
   connection is poisoned with [Connection_lost] and every outstanding
   completion fails with it — a waiting client gets a typed failure,
   never a hang. *)

module SQ = Qs_remote.Socket_queue

(* An outstanding rendezvous, keyed by its wire id, with the ns stamp
   its round trip is measured from: the request's birth for a query,
   the send for a sync. *)
type pending =
  | Blocked : 'a Qs_sched.Ivar.t * int -> pending (* a blocking query *)
  | Promised : 'a Qs_sched.Promise.t * int -> pending (* a pipelined query *)
  | Syncing : Qs_sched.Sched.resumer * int -> pending (* a sync *)

type conn = {
  label : string; (* "unix:..." / "tcp:...", for errors and stats *)
  fd : Unix.file_descr;
  send_q : Remote_proto.client_msg SQ.t;
  recv_q : Remote_proto.node_msg SQ.t;
  lock : Mutex.t; (* guards the tables, [lost] and [closing] *)
  pending : (int, pending) Hashtbl.t; (* qid or sid -> rendezvous *)
  poisons : (int, exn -> Printexc.raw_backtrace -> unit) Hashtbl.t;
      (* reg -> the registration's poison completion *)
  mutable lost : bool;
  mutable closing : bool; (* orderly teardown: EOF is expected, not a loss *)
  next_qid : int Atomic.t; (* numbers queries and syncs alike *)
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

(* Deliver a failure into an outstanding rendezvous.  A sync has no
   error channel: resuming it is enough, because only a lost connection
   fails a sync, and that has already poisoned the registration, which
   the sync point checks. *)
let reject ?bt e = function
  | Blocked (iv, _) -> ignore (Qs_sched.Ivar.try_fill_error ?bt iv e : bool)
  | Promised (p, _) ->
    ignore (Qs_sched.Promise.try_fulfill_error ?bt p e : bool)
  | Syncing (resume, _) -> ignore (resume () : bool)

(* Tear the connection down: mark it lost and poison every open
   registration under the lock, then fail the pending rendezvous outside
   it.  Whoever finds [lost] set under the lock therefore finds its
   registration already poisoned, so a failed or resumed waiter always
   meets the poison at its sync point.  Idempotent; an orderly [close]
   sets [closing] first, which suppresses the failure accounting (EOF
   after [Bye] is the protocol working, not breaking). *)
let connection_lost conn =
  let e = Remote_proto.Connection_lost conn.label in
  let bt = Printexc.get_callstack 0 in
  let observers =
    with_lock conn (fun () ->
      if conn.lost then None
      else begin
        Hashtbl.iter (fun _ poison -> poison e bt) conn.poisons;
        conn.lost <- true;
        let pend = Hashtbl.fold (fun _ p acc -> p :: acc) conn.pending [] in
        Hashtbl.reset conn.poisons;
        Hashtbl.reset conn.pending;
        Some (conn.closing, pend)
      end)
  in
  match observers with
  | None -> ()
  | Some (closing, pend) ->
    if not closing then
      Qs_obs.Counter.incr conn.stats.Stats.remote_failures;
    List.iter (reject ~bt e) pend

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

(* Take a rendezvous off the table as its completion arrives, folding
   the round trip into the remote histogram: a remote round trip ends
   where its completion is produced, as a local one ends on the handler.
   A failed round trip is still a completed one.  [None] is a rendezvous
   the connection already failed; a timed-out client leaves its entry in
   place, and the late completion lands in an abandoned ivar. *)
let arrived conn qid =
  let stats = conn.stats in
  Qs_obs.Counter.incr stats.Stats.remote_replies;
  let entry =
    with_lock conn (fun () ->
      let p = Hashtbl.find_opt conn.pending qid in
      Hashtbl.remove conn.pending qid;
      p)
  in
  let since birth = Qs_obs.Clock.now_ns () - birth in
  (match entry with
  | Some (Blocked (_, birth) | Syncing (_, birth)) ->
    Qs_obs.Histogram.record stats.Stats.h_query_remote (since birth)
  | Some (Promised (_, birth)) ->
    Qs_obs.Histogram.record stats.Stats.h_pipelined_remote (since birth)
  | None -> ());
  entry

let handle conn = function
  | Remote_proto.Rresult { qid; v } -> (
    match arrived conn qid with
    | Some (Blocked (iv, _)) ->
      ignore (Qs_sched.Ivar.try_fill iv (Obj.obj v) : bool)
    | Some (Promised (p, _)) ->
      ignore (Qs_sched.Promise.try_fulfill p (Obj.obj v) : bool)
    | Some (Syncing _) | None -> ())
  | Rfailed { qid; msg } ->
    Option.iter (reject (Remote_proto.Remote_error msg)) (arrived conn qid)
  | Rsynced { sid } -> (
    match arrived conn sid with
    | Some (Syncing (resume, _)) -> ignore (resume () : bool)
    | Some (Blocked _ | Promised _) | None -> ())
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

(* -- Per-registration enqueue --------------------------------------------- *)

(* Record a rendezvous under a fresh wire id, then send the frame built
   from that id ([flush]: write it before returning).  Never raises: on
   a lost connection or a failed send the failure goes into the
   rendezvous, as a local handler delivers a failure into a request's
   completion. *)
let ship conn ~flush entry frame =
  Qs_obs.Counter.incr conn.stats.Stats.remote_requests;
  let qid = Atomic.fetch_and_add conn.next_qid 1 in
  try
    with_lock conn (fun () ->
      if conn.lost then raise (Remote_proto.Connection_lost conn.label);
      Hashtbl.replace conn.pending qid entry);
    (if flush then send_now else send) conn (frame qid)
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    with_lock conn (fun () -> Hashtbl.remove conn.pending qid);
    reject ~bt e entry

(* Open a registration on the node and return its enqueue.  The poison
   completion is installed at open, so a registration that only queries
   or syncs is poisoned by a lost connection too.
   @raise Connection_lost if the connection is already lost. *)
let open_reg conn ~proc ~poison =
  let reg = Atomic.fetch_and_add conn.next_reg 1 in
  let stats = conn.stats in
  with_lock conn (fun () ->
    if conn.lost then raise (Remote_proto.Connection_lost conn.label);
    Hashtbl.replace conn.poisons reg poison);
  send conn (Remote_proto.Open { reg; proc });
  (* The producer ships as itself, viewed at the wire's [unit -> Obj.t]
     (every value has the uniform representation); [handle] decodes the
     result at its rendezvous's own type.  A typed [Obj.repr] wrapper
     would marshal a second closure with every query. *)
  let rquery run qid =
    Remote_proto.Rquery
      { reg; qid; f = (Obj.magic (run : unit -> _) : unit -> Obj.t) }
  in
  function
  | Request.Call { run; birth; _ } ->
    Qs_obs.Counter.incr stats.Stats.remote_requests;
    send conn (Remote_proto.Rcall { reg; f = run });
    (* Fire-and-forget: no reply carries a completion to time against,
       so the remote call histogram measures the send-side handoff
       (serialization + socket write + any transport backpressure). *)
    Qs_obs.Histogram.record stats.Stats.h_call_remote
      (Qs_obs.Clock.now_ns () - birth)
  | Request.Query { run; result; birth; _ } ->
    (* Its client parks next: the frame must not wait for the deferred
       flush. *)
    ship conn ~flush:true (Blocked (result, birth)) (rquery run)
  | Request.Pipelined { run; promise; birth; _ } ->
    ship conn ~flush:false (Promised (promise, birth)) (rquery run)
  | Request.Sync resume ->
    (* Logged from [Sched.suspend]'s register callback, which runs
       outside any fiber: waiting there for the write lock or a full
       socket would perform an effect nothing handles.  The frame goes
       out from a fiber of its own instead; [ship] never raises, and a
       lost connection resumes the client into the poison check. *)
    Qs_sched.Sched.spawn (fun () ->
      ship conn ~flush:true
        (Syncing (resume, Qs_obs.Clock.now_ns ()))
        (fun sid -> Remote_proto.Rsync { reg; sid }))
  | Request.End _ ->
    (* Drop the poison callback with the registration: after [close] the
       only remaining consumer is the block-exit poison check, which
       reads what was already recorded — a failure the node reports
       later is missed exactly like the in-process runtime's
       best-effort exit check misses a not-yet-executed failing call. *)
    with_lock conn (fun () -> Hashtbl.remove conn.poisons reg);
    if not conn.lost then
      try send conn (Remote_proto.Rclose { reg })
      with Remote_proto.Connection_lost _ -> ()

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
      poisons = Hashtbl.create 16;
      lost = false;
      closing = false;
      next_qid = Atomic.make 0;
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
