(* Runtime façade: processor registry, lifecycle, and entry point. *)

type t = {
  ctx : Ctx.t;
  procs : Processor.t Qs_queues.Treiber_stack.t;
  next_id : int Atomic.t;
  remotes : Remote_client.t option;
      (* node connections when [config.endpoint = Connect _]: new
         processors become client-side proxies routed by the static
         shard map (processor id mod connection count) *)
}

(* A caller-supplied [obs] sink (e.g. the one already attached to the
   scheduler) wins, so every layer's events land in the same rings;
   otherwise [config.trace] asks for a fresh private one. *)
let create ?(config = Config.all) ?obs () =
  let sink =
    match obs with
    | Some _ -> obs
    | None when config.Config.trace -> Some (Qs_obs.Sink.create ())
    | None -> None
  in
  let ctx = Ctx.create ?sink config in
  let remotes =
    match config.Config.endpoint with
    | Config.Connect addrs ->
      (* Establish the node connections up front (and their
         demultiplexer fibers): [create] with a [Connect] endpoint must
         run inside the scheduler, like [run] arranges. *)
      Some (Remote_client.connect ~stats:ctx.Ctx.stats addrs)
    | Config.In_process | Config.Listen _ -> None
  in
  {
    ctx;
    procs = Qs_queues.Treiber_stack.create ();
    next_id = Atomic.make 0;
    remotes;
  }

let config t = t.ctx.Ctx.config
let ctx t = t.ctx
let is_remote t = t.remotes <> None
let stats t = t.ctx.Ctx.stats
let trace t = t.ctx.Ctx.trace
let obs t = t.ctx.Ctx.sink

let processor t =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let proc =
    match t.remotes with
    | Some rc ->
      (* Remote endpoint: the processor is a client-side stand-in whose
         handler lives on the node the shard map routes this id to. *)
      let conn = Remote_client.route rc id in
      let ops =
        {
          Processor.rem_node = Remote_client.conn_label conn;
          rem_open = Remote_client.open_reg conn ~proc:id;
        }
      in
      Processor.create_remote ?sink:t.ctx.Ctx.sink ~id
        ~config:t.ctx.Ctx.config ~stats:t.ctx.Ctx.stats ~ops ()
    | None ->
      Processor.create ?sink:t.ctx.Ctx.sink ~id ~config:t.ctx.Ctx.config
        ~stats:t.ctx.Ctx.stats ()
  in
  (match t.ctx.Ctx.eve with
  | Some eve -> Eve.register eve id
  | None -> ());
  Qs_queues.Treiber_stack.push t.procs proc;
  proc

let processors t n = List.init n (fun _ -> processor t)

(* Orderly remote teardown, after local handlers have drained: announce
   Bye on every node connection and unblock the demultiplexers. *)
let close_remotes t =
  match t.remotes with
  | Some rc -> ( try Remote_client.close rc with _ -> ())
  | None -> ()

(* Ask every connected node process to stop serving (pairs with
   [Scoop.Remote.listen] on the node side). *)
let shutdown_nodes t =
  match t.remotes with
  | Some rc -> Remote_client.shutdown_nodes rc
  | None -> ()

(* Pop every registered processor and apply [close] (Processor.shutdown
   or Processor.abort).  The pop-based registry makes repeated lifecycle
   calls naturally idempotent: a second call finds the stack empty. *)
let drain_procs t close =
  let rec pop acc =
    match Qs_queues.Treiber_stack.pop t.procs with
    | Some proc ->
      close proc;
      pop (proc :: acc)
    | None -> acc
  in
  pop []

let shutdown ?grace t =
  (* Close every stream first (so sibling handlers drain concurrently),
     then await each completion latch: when [shutdown] returns, every
     handler fiber has exited and all counters are final.

     With [?grace], the awaits share one absolute deadline.  Handlers
     still running when it expires are escalated to [Processor.abort] —
     their remaining packaged requests fail with [Aborted] — and then
     awaited without bound: abort cannot un-wedge a closure that never
     returns, but it does bound the *backlog*, which is the common way a
     drain overruns. *)
  let procs = drain_procs t Processor.shutdown in
  let deadline =
    Option.map (fun g -> Qs_sched.Timer.now () +. Float.max 0.0 g) grace
  in
  let stopped proc =
    match Option.map (fun d -> d -. Qs_sched.Timer.now ()) deadline with
    | Some remaining when remaining <= 0.0 -> false
    | timeout -> (
      match Processor.await_stopped ?timeout proc with
      | () -> true
      | exception Qs_sched.Timer.Timeout -> false)
  in
  let laggards = List.filter (fun proc -> not (stopped proc)) procs in
  List.iter Processor.abort laggards;
  List.iter Processor.await_stopped laggards;
  close_remotes t

let abort t =
  List.iter Processor.await_stopped (drain_procs t Processor.abort);
  close_remotes t

(* Exceptional exit from [run]: close the streams but do not await the
   latches.  If [main] raised (including a scheduler [Stalled]), client
   fibers may be wedged holding registrations open, and a blocking wait
   here could hang the very error path that is trying to report them. *)
let quench t =
  ignore (drain_procs t Processor.shutdown : Processor.t list);
  close_remotes t

let separate ?timeout t proc body = Separate.one ?timeout t.ctx proc body

let separate2 ?timeout t p1 p2 body =
  Separate.many ?timeout t.ctx [ p1; p2 ] (function
    | [ r1; r2 ] -> body r1 r2
    | _ -> assert false)

let separate_list ?timeout t procs body =
  Separate.many ?timeout t.ctx procs body

let separate_when ?timeout t proc ~pred body =
  Separate.when_ ?timeout t.ctx proc ~pred body

let separate_list_when ?timeout t procs ~pred body =
  Separate.many_when ?timeout t.ctx procs ~pred body

let run ?(domains = 1) ?(config = Config.all) ?grace ?obs ?on_counters main =
  (* Build the sink before the scheduler starts so its workers share it:
     one sink then collects scheduler, handler and client events. *)
  let sink =
    match obs with
    | Some _ -> obs
    | None when config.Config.trace -> Some (Qs_obs.Sink.create ())
    | None -> None
  in
  Qs_sched.Sched.run ~domains ?on_counters ?obs:sink (fun () ->
    let t = create ~config ?obs:sink () in
    match main t with
    | v ->
      shutdown ?grace t;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try quench t with _ -> ());
      Printexc.raise_with_backtrace e bt)
