(* The scenario table behind `qs check`.  Each body is a small workload
   that prints its walkthrough lines and raises if the runtime
   misbehaves; between them they cover the request vocabulary the
   conformance automaton checks — calls, queries, pipelined queries,
   elided syncs, wait conditions, timeouts, sheds, poisoned
   registrations, aborts and a many-client flood. *)

module R = Scoop.Runtime
module Reg = Scoop.Registration
module Sh = Scoop.Shared
module S = Qs_sched.Sched
module Latch = Qs_sched.Latch

type t = {
  name : string;
  doc : string;
  config : Scoop.Config.t;
  body : R.t -> unit;
}

(* [n] client fibers each run [f] to completion; returns once all have. *)
let clients n f =
  let latch = Latch.create n in
  for _ = 1 to n do
    S.spawn (fun () ->
      f ();
      Latch.count_down latch)
  done;
  Latch.wait latch

let get rt h cell = R.separate rt h (fun reg -> Sh.get reg cell (fun r -> !r))

(* Concurrent clients over two handlers: asynchronous calls, blocking
   queries, pipelined queries, and the dynamic sync elision those
   produce.  Several clients per handler is the point: the merged ring
   interleaves their watermarks, which the per-registration
   partitioning must untangle. *)
let basic rt =
  let a = R.processor rt and b = R.processor rt in
  let ca = Sh.create a (ref 0) and cb = Sh.create b (ref 0) in
  clients 3 (fun () ->
    for i = 1 to 25 do
      R.separate rt a (fun reg ->
        Sh.apply reg ca incr;
        if i mod 5 = 0 then ignore (Sh.get reg ca (fun r -> !r) : int));
      R.separate rt b (fun reg ->
        Sh.apply reg cb incr;
        ignore (Scoop.Promise.await (Reg.query_async reg (fun () -> 0)) : int))
    done)

(* Bank tellers: four clients deposit into one account, auditing the
   balance every 50 deposits so the trace has round trips as well as
   asynchronous calls. *)
let bank rt =
  let account = R.processor rt in
  let balance = Sh.create account (ref 100) in
  let tellers = 4 and deposits = 1000 in
  clients tellers (fun () ->
    for i = 1 to deposits do
      R.separate rt account (fun reg ->
        Sh.apply reg balance incr;
        if i mod 50 = 0 then ignore (Sh.get reg balance (fun b -> !b) : int))
    done);
  let final = get rt account balance in
  let expected = 100 + (tellers * deposits) in
  Printf.printf "final balance: %d (expected %d)\n" final expected;
  if final <> expected then failwith "bank: deposits lost"

(* Bounded producer/consumer over two handlers with wait conditions:
   reservations, parked wait retries and multi-handler transfers. *)
let prodcons rt =
  let buf_proc = R.processor rt and sink_proc = R.processor rt in
  let buffer = Sh.create buf_proc (Queue.create ()) in
  let consumed = Sh.create sink_proc (ref 0) in
  let items = 500 in
  let length reg = Sh.get reg buffer Queue.length in
  let latch = Latch.create 2 in
  S.spawn (fun () ->
    for i = 1 to items do
      R.separate_when rt buf_proc
        ~pred:(fun reg -> length reg < 16)
        (fun reg -> Sh.apply reg buffer (Queue.push i))
    done;
    Latch.count_down latch);
  S.spawn (fun () ->
    for _ = 1 to items do
      let v =
        R.separate_when rt buf_proc
          ~pred:(fun reg -> length reg > 0)
          (fun reg -> Sh.get reg buffer Queue.pop)
      in
      R.separate rt sink_proc (fun reg ->
        Sh.apply reg consumed (fun c -> c := !c + v))
    done;
    Latch.count_down latch);
  Latch.wait latch;
  let total = get rt sink_proc consumed in
  let expected = items * (items + 1) / 2 in
  Printf.printf "consumed %d items (checksum %d, expected %d)\n" items total
    expected;
  if total <> expected then failwith "prodcons: items lost"

(* A deliberately wedged handler: the bounded query abandons its
   rendezvous (a TimedOut event, a no-op on the automaton: the log stays
   intact), and because a timeout does not poison, the same registration
   answers once the slow call drains. *)
let timeout rt =
  let h = R.processor rt in
  let r = ref 0 and wedge = 0.15 and deadline = 0.02 in
  R.separate rt h (fun reg ->
    Reg.call reg (fun () ->
      S.sleep wedge;
      incr r);
    (match Reg.query ~timeout:deadline reg (fun () -> !r) with
    | _ -> failwith "timeout: wedged query answered in time"
    | exception Scoop.Timeout ->
      Printf.printf
        "deadline: query against a handler wedged for %.2fs raised \
         Scoop.Timeout after %.2fs\n"
        wedge deadline);
    let v = Reg.query reg (fun () -> !r) in
    Printf.printf
      "deadline: the same registration answered %d once the handler \
       recovered (timeouts do not poison)\n"
      v;
    if v <> 1 then failwith "timeout: recovery query missed the slow call")

(* Overflow a handler bounded at 2 under [`Shed_oldest]: the wedge call
   holds the handler while the flood crosses the bound, so the oldest
   pending calls are shed (Shed events attributed to this registration)
   and the poison surfaces as [Overloaded] at the sync point. *)
let shed rt =
  let h = R.processor rt in
  let r = ref 0 in
  (try
     R.separate rt h (fun reg ->
       Reg.call reg (fun () -> S.sleep 0.05);
       for _ = 1 to 6 do
         Reg.call reg (fun () -> incr r)
       done;
       ignore (Reg.query reg (fun () -> !r) : int))
   with Scoop.Handler_failure (_, Scoop.Overloaded _) -> ());
  Printf.printf "shed_requests = %d\n"
    (Qs_obs.Counter.get (R.stats rt).Scoop.Stats.shed_requests)

(* Every failure path of the request pipeline: a raising blocking query,
   a rejected pipelined query, a poisoned registration (the
   dirty-processor rule), then shutdown and an abort that discards
   pending requests unexecuted. *)
let faults rt =
  let worker = R.processor rt in
  let cell = Sh.create worker (ref 0) in
  R.separate rt worker (fun reg ->
    Sh.apply reg cell incr;
    match Reg.query reg (fun () -> failwith "query fault") with
    | _ -> failwith "faults: raising query answered"
    | exception Failure _ ->
      print_endline "blocking query: failure re-raised at the call site");
  R.separate rt worker (fun reg ->
    let p = Reg.query_async reg (fun () -> failwith "promise fault") in
    match Scoop.Promise.await p with
    | _ -> failwith "faults: raising promise fulfilled"
    | exception Failure _ ->
      print_endline "pipelined query: promise rejected, await re-raised");
  (match
     R.separate rt worker (fun reg ->
       Reg.call reg (fun () -> failwith "call fault");
       ignore (Sh.get reg cell (fun r -> !r) : int))
   with
  | () -> failwith "faults: poisoned sync returned"
  | exception Scoop.Handler_failure (id, e) ->
    Printf.printf
      "asynchronous call: registration on processor %d poisoned by %s\n" id
      (Printexc.to_string e));
  Printf.printf "handler survived the faults: cell = %d\n" (get rt worker cell);
  R.shutdown rt;
  Printf.printf "lifecycle after shutdown: %s\n"
    Scoop.Processor.(
      match lifecycle worker with
      | Running -> "running"
      | Draining -> "draining"
      | Stopped -> "stopped"
      | Failed -> "failed");
  (* [abort] reaches only the processors created since [shutdown]. *)
  let w = R.processor rt in
  let cell = Sh.create w (ref 0) in
  R.separate rt w (fun reg ->
    for _ = 1 to 5 do
      Sh.apply reg cell incr
    done);
  R.abort rt;
  Printf.printf "abort: discarded %d pending requests unexecuted\n"
    (Qs_obs.Counter.get (R.stats rt).Scoop.Stats.aborted_requests)

(* Four clients flood one handler, one reservation per call: every call
   runs exactly once, whichever worker serves it. *)
let flood rt =
  let h = R.processor rt in
  let count = Sh.create h (ref 0) in
  let per = 500 in
  clients 4 (fun () ->
    for _ = 1 to per do
      R.separate rt h (fun reg -> Sh.apply reg count incr)
    done);
  let ran = get rt h count and made = 4 * per in
  Printf.printf "flood: %d of %d calls ran\n" ran made;
  if ran <> made then failwith "flood: calls lost or repeated"

let all =
  let open Scoop.Config in
  let s name doc config body = { name; doc; config; body } in
  [
    s "basic" "concurrent calls/queries/elisions" all basic;
    s "bank" "four tellers deposit into one account" qoq bank;
    s "prodcons" "bounded buffer with wait conditions" qoq prodcons;
    s "timeout" "wedged query abandons its rendezvous" all timeout;
    s "shed" "bounded handler sheds oldest under overflow"
      (all |> with_bound 2 |> with_overflow `Shed_oldest)
      shed;
    s "faults" "every failure path, then shutdown and abort" qoq faults;
    s "flood" "four clients flood one handler" qoq flood;
  ]

let find name = List.find_opt (fun s -> s.name = name) all

type outcome = {
  stats : Scoop.Stats.t;
  sched : S.counters;
  sink : Qs_obs.Sink.t;
  verdict : (Qs_conform.report, Qs_conform.error) result;
}

let run ?(domains = 2) ?mailbox t =
  let config =
    match mailbox with
    | Some m -> Scoop.Config.with_mailbox m t.config
    | None -> t.config
  in
  let sink = Qs_obs.Sink.create ~capacity:65_536 () in
  let sched = ref None in
  let stats =
    R.run ~domains ~config ~obs:sink
      ~on_counters:(fun c -> sched := Some c)
      (fun rt ->
        t.body rt;
        R.stats rt)
  in
  let verdict = Qs_conform.check_trace (Scoop.Trace.of_sink sink) in
  { stats; sched = Option.get !sched; sink; verdict }

let phantom o =
  match o.verdict with
  | Ok { Qs_conform.streams = s :: _; _ } ->
    let tr = Scoop.Trace.of_sink o.sink in
    Scoop.Trace.record tr ~proc:s.Qs_conform.st_proc
      ~client:s.Qs_conform.st_client (Scoop.Trace.Call_executed 0.);
    Some (Qs_conform.check_trace tr)
  | Ok _ | Error _ -> None
