(* Node half of the distributed runtime: host real processors behind the
   socket transport and serve remote clients.

   One accept loop parks on the listen descriptor's readability (a
   scheduler poller wake source, like the timer heap); each accepted
   connection gets its own *serve fiber* multiplexed on the same
   scheduler as the handler fibers it feeds — many concurrent
   connections cost fibers, not threads.

   A serve fiber replays the client's wire stream onto ordinary runtime
   operations: [Open] enters a separate block ([Separate.enter]) on
   the processor the message names, [Rcall]/[Rquery]/[Rsync] ride that
   registration's stream, [Rclose] exits the block.  Queries and syncs
   are wrapped as *asynchronous calls* whose body runs on the handler
   and writes the completion frame back — so a completion is emitted
   only after every earlier request of the stream has been served, which
   is exactly the ordering the in-process runtime guarantees, stretched
   over a connection.  The wrapped bodies check the registration's
   poison first and report it ahead of the completion, making the
   dirty-processor rule observable client-side at the same points it
   would surface in-process.

   Completions are written the way requests are: the first frame a
   handler dispatch sends goes out at once, the rest of its batch share
   one write when the handler gives up the worker (the
   [Qs_remote.Socket_queue] flush rule).

   Backpressure is node-side: the serve fiber logs requests through the
   ordinary [Registration] path, so a bounded mailbox's admission
   control blocks *it*, which stops it reading the socket, which fills
   the kernel buffers, which parks the client's write — and every later
   client sender queues behind that write, so the bound propagates over
   the connection with no extra protocol.

   The node's config must use the queue-of-queues mailbox: a Direct-mode
   reservation holds the handler lock for the block's whole lifetime,
   and a serve fiber holding it across wire messages would head-of-line
   block every other connection's access to that handler. *)

module SQ = Qs_remote.Socket_queue

let nlog fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "[qs-node] %s\n%!" s) fmt

(* Per-connection serving state: the client's processor ids are an
   independent id space, mapped lazily onto node-side processors (two
   clients' processor 0 are two distinct handlers). *)
type conn_state = {
  rt : Runtime.t;
  send_q : Remote_proto.node_msg SQ.t;
  procs : (int, Processor.t) Hashtbl.t; (* client proc id -> handler *)
  regs : (int, Registration.t) Hashtbl.t; (* wire reg id -> open block *)
}

let send st msg = try SQ.enqueue st.send_q msg with SQ.Closed -> ()

let report_poison st ~reg e =
  send st (Remote_proto.Rpoisoned { reg; msg = Printexc.to_string e })

let proc_of st id =
  match Hashtbl.find_opt st.procs id with
  | Some p -> p
  | None ->
    let p = Runtime.processor st.rt in
    Hashtbl.replace st.procs id p;
    p

(* Serve one wire message.  [Registration.call] can itself raise
   [Handler_failure] (the registration observed poison at logging time);
   every request shape catches it and reports — plus, for shapes with a
   rendezvous, resolves the rendezvous so the client never hangs on a
   dirty stream. *)
let serve_msg st = function
  | Remote_proto.Hello _ -> () (* re-checked at accept; ignore *)
  | Open { reg; proc } ->
    let p = proc_of st proc in
    let r = Separate.enter (Runtime.ctx st.rt) p in
    Hashtbl.replace st.regs reg r
  | Rcall { reg; f } -> (
    match Hashtbl.find_opt st.regs reg with
    | None -> ()
    | Some r -> (
      try Registration.call r f
      with Registration.Handler_failure (_, e) -> report_poison st ~reg e))
  | Rquery { reg; qid; f } -> (
    match Hashtbl.find_opt st.regs reg with
    | None -> send st (Rfailed { qid; msg = "unknown registration" })
    | Some r -> (
      try
        Registration.call r (fun () ->
          (* Runs on the handler, after every earlier request of this
             stream.  An earlier call's failure is visible here (its
             poison completion ran on this same handler fiber), and is
             reported *before* the query's completion so the client
             demultiplexer poisons the registration first. *)
          match Registration.poisoned r with
          | Some e ->
            report_poison st ~reg e;
            send st (Rfailed { qid; msg = Printexc.to_string e })
          | None -> (
            match f () with
            | v -> send st (Rresult { qid; v })
            | exception e ->
              (* The producer itself raised: a rendezvous failure, not a
                 poisoning — same rule as in-process packaged queries. *)
              send st (Rfailed { qid; msg = Printexc.to_string e })))
      with Registration.Handler_failure (_, e) ->
        report_poison st ~reg e;
        send st (Rfailed { qid; msg = Printexc.to_string e })))
  | Rsync { reg; sid } -> (
    match Hashtbl.find_opt st.regs reg with
    | None -> send st (Rsynced { sid })
    | Some r -> (
      try
        Registration.call r (fun () ->
          (match Registration.poisoned r with
          | Some e -> report_poison st ~reg e
          | None -> ());
          send st (Rsynced { sid }))
      with Registration.Handler_failure (_, e) ->
        report_poison st ~reg e;
        send st (Rsynced { sid })))
  | Rclose { reg } -> (
    match Hashtbl.find_opt st.regs reg with
    | None -> ()
    | Some r ->
      Hashtbl.remove st.regs reg;
      (try Separate.exit r with _ -> ());
      (* Best-effort exit check, like the in-process block's: a failure
         already observed is reported; one the handler has not reached
         yet is not (it would surface at the client's next sync point —
         but the block is gone, matching in-process semantics). *)
      (match Registration.poisoned r with
      | Some e -> report_poison st ~reg e
      | None -> ()))
  | Bye | Shutdown -> () (* handled by the serve loop *)

(* Tear a connection's state down: exit every still-open block and close
   the connection's processors.  Draining (not aborting) preserves
   at-most-once effects for calls already received. *)
let cleanup st =
  Hashtbl.iter
    (fun _ r -> try Separate.exit r with _ -> ())
    st.regs;
  Hashtbl.reset st.regs;
  Hashtbl.iter (fun _ p -> Processor.shutdown p) st.procs;
  Hashtbl.iter (fun _ p -> Processor.await_stopped p) st.procs;
  Hashtbl.reset st.procs

(* Serve one accepted connection until Bye, Shutdown, EOF or a torn
   frame.  Returns [`Shutdown] if the client asked the node process to
   stop. *)
let serve_conn rt fd =
  let recv_q : Remote_proto.client_msg SQ.t =
    SQ.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
  in
  let send_q : Remote_proto.node_msg SQ.t =
    SQ.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
  in
  let st =
    { rt; send_q; procs = Hashtbl.create 8; regs = Hashtbl.create 16 }
  in
  let result = ref `Bye in
  (* Handshake: first frame must be a matching Hello — a peer built from
     a different binary is refused before any closure is decoded. *)
  (match SQ.dequeue recv_q with
  | Some (Remote_proto.Hello _ as h) -> (
    match Remote_proto.check_hello h with
    | Ok () -> (
      let continue_ = ref true in
      while !continue_ do
        match SQ.dequeue recv_q with
        | Some Remote_proto.Bye | None -> continue_ := false
        | Some Remote_proto.Shutdown ->
          result := `Shutdown;
          continue_ := false
        | Some msg -> serve_msg st msg
        | exception SQ.Truncated_frame ->
          nlog "torn frame: peer died mid-send; dropping connection";
          continue_ := false
        | exception e ->
          nlog "serve error: %s" (Printexc.to_string e);
          continue_ := false
      done)
    | Error why -> nlog "refusing connection: %s" why)
  | Some _ | None -> nlog "refusing connection: no Hello"
  | exception _ -> nlog "refusing connection: unreadable Hello");
  cleanup st;
  SQ.close_writer send_q;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  !result

(* Accept loop: park on the listen fd, spawn a serve fiber per
   connection.  Returns once a client sent [Shutdown] and every serve
   fiber has finished.  Closing the listen descriptor from a serve fiber
   unblocks the accept loop via the poller's EBADF sweep. *)
let serve rt addr =
  if not (Config.uses_qoq (Runtime.config rt)) then
    invalid_arg
      "Scoop.Node: node configs must use the `Qoq mailbox (a Direct-mode \
       reservation would head-of-line block the serve fiber)";
  let lfd = Remote_proto.listen_on addr in
  let stop = Atomic.make false in
  let active = Atomic.make 0 in
  let request_stop () =
    if not (Atomic.exchange stop true) then
      (* Wakes the accept loop out of await_readable: the poller's EBADF
         sweep resumes it, and the retried accept fails out of the loop. *)
      try Unix.close lfd with Unix.Unix_error _ -> ()
  in
  nlog "listening on %s" (Config.addr_to_string addr);
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      match Remote_proto.accept_nonblock lfd with
      | Some fd ->
        Atomic.incr active;
        Qs_sched.Sched.spawn (fun () ->
          (match serve_conn rt fd with
          | `Shutdown -> request_stop ()
          | `Bye -> ());
          Atomic.decr active);
        accept_loop ()
      | None ->
        Qs_sched.Sched.await_readable lfd;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> () (* stopped *)
      | exception Unix.Unix_error _ when Atomic.get stop -> ()
    end
  in
  accept_loop ();
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (* Let in-flight serve fibers drain before returning to the caller
     (who is about to shut the runtime down). *)
  while Atomic.get active > 0 do
    Qs_sched.Sched.yield ()
  done;
  (match addr with
  | Config.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Config.Tcp _ -> ());
  nlog "stopped"
