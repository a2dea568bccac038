(* A bounded buffer with SCOOP wait conditions.

   In SCOOP, a routine's precondition on a separate object is a *wait
   condition*: instead of failing, the call waits until the supplier's
   state satisfies it.  [Scoop.Runtime.separate_when] provides exactly
   that — the condition and the body run under one registration, so no
   other client can sneak in between the check and the action.

   Producers wait for space, consumers wait for items; no explicit locks,
   condition variables, or retry loops appear in user code.

   Run with:  dune exec examples/bounded_buffer.exe *)

let () =
  let capacity = 8 and producers = 3 and items = 300 in
  Scoop.Runtime.run ~domains:2 (fun rt ->
    let owner = Scoop.Runtime.processor rt in
    let buffer = Scoop.Shared.create owner (Queue.create ()) in
    let latch = Qs_sched.Latch.create (2 * producers) in
    let consumed = Atomic.make 0 in
    for p = 0 to producers - 1 do
      Qs_sched.Sched.spawn (fun () ->
        for i = 1 to items do
          (* require buffer.count < capacity *)
          Scoop.Runtime.separate_when rt owner
            ~pred:(fun reg ->
              Scoop.Shared.get reg buffer (fun q -> Queue.length q < capacity))
            (fun reg ->
              Scoop.Shared.apply reg buffer (fun q ->
                Queue.push ((p * items) + i) q))
        done;
        Qs_sched.Latch.count_down latch);
      Qs_sched.Sched.spawn (fun () ->
        for _ = 1 to items do
          (* require not buffer.is_empty *)
          let _item =
            Scoop.Runtime.separate_when rt owner
              ~pred:(fun reg ->
                Scoop.Shared.get reg buffer (fun q -> not (Queue.is_empty q)))
              (fun reg -> Scoop.Shared.get reg buffer Queue.pop)
          in
          Atomic.incr consumed
        done;
        Qs_sched.Latch.count_down latch)
    done;
    Qs_sched.Latch.wait latch;
    let leftover =
      Scoop.Runtime.separate rt owner (fun reg ->
        Scoop.Shared.get reg buffer Queue.length)
    in
    Printf.printf "consumed %d items, %d left in the buffer\n"
      (Atomic.get consumed) leftover;
    assert (Atomic.get consumed = producers * items && leftover = 0);
    Printf.printf
      "the buffer never overflowed; wait conditions retried %d times\n"
      (Qs_obs.Counter.get (Scoop.Runtime.stats rt).Scoop.Stats.wait_retries))
