(* Tests of the benchmark's own arithmetic. *)

module S = Pbstats

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_quantile () =
  let s = Array.init 100 (fun i -> i + 1) in
  check_int "p50 of 1..100" 50 (S.quantile s 0.5);
  check_int "p90 of 1..100" 90 (S.quantile s 0.9);
  check_int "p99 of 1..100" 99 (S.quantile s 0.99);
  check_int "p100 is the maximum" 100 (S.quantile s 1.0);
  check_int "one sample is every quantile" 7 (S.quantile [| 7 |] 0.01);
  check_int "p50 of two samples is the lower" 3 (S.quantile [| 3; 9 |] 0.5);
  Alcotest.check_raises "no samples" (Invalid_argument "Pbstats.quantile: no samples")
    (fun () -> ignore (S.quantile [||] 0.5))

let test_sample_count () =
  check_int "1000 samples: 10 beyond p99" 10 (S.beyond 1000 0.99);
  Alcotest.(check bool) "1000 samples support p99" true (S.tail_ok 1000 0.99);
  check_int "300 samples: 3 beyond p99" 3 (S.beyond 300 0.99);
  Alcotest.(check bool) "300 samples do not support p99" false (S.tail_ok 300 0.99);
  Alcotest.(check bool) "300 samples support p90" true (S.tail_ok 300 0.9)

let test_median_geomean () =
  check_float "median, odd count" 3. (S.median [ 5.; 1.; 3. ]);
  check_float "median, even count" 2.5 (S.median [ 4.; 1.; 3.; 2. ]);
  check_float "geomean" 4. (S.geomean [ 2.; 8. ])

let test_open_loop () =
  (* Requests due every 100 ns, each served in 10 ns once issued.  The
     generator stalls for 1000 ns before the second request, so requests
     2..11 are issued late; their latency must carry the stall. *)
  let intended = Array.init 20 (fun i -> i * 100) in
  let issued = Array.map (fun t -> if t >= 100 then max t 1100 else t) intended in
  let completed = Array.map (fun t -> t + 10) issued in
  let lat i = S.open_loop_latency ~intended:intended.(i) ~completed:completed.(i) in
  check_int "on time: service only" 10 (lat 0);
  check_int "first delayed request carries the whole stall" 1010 (lat 1);
  check_int "later delayed requests carry what is left of it" 110 (lat 10);
  check_int "after the stall: service only" 10 (lat 12)

let test_self_time () =
  check_int "no children" 100 (S.self_time ~start:0 ~stop:100 []);
  check_int "disjoint children" 70 (S.self_time ~start:0 ~stop:100 [ (10, 20); (50, 70) ]);
  check_int "overlapping children count once" 60
    (S.self_time ~start:0 ~stop:100 [ (10, 40); (30, 50) ]);
  check_int "nested child counts once" 70 (S.self_time ~start:0 ~stop:100 [ (10, 40); (20, 30) ]);
  check_int "children clipped to the parent" 80
    (S.self_time ~start:0 ~stop:100 [ (-50, 10); (90, 200) ]);
  check_int "fully covered" 0 (S.self_time ~start:0 ~stop:100 [ (0, 100) ])

let test_accounting () =
  let o = { S.issued = 100; completed = 90; shed = 6; timed_out = 3; failed = 1 } in
  Alcotest.(check bool) "balanced" true (S.balanced o);
  Alcotest.(check bool) "a lost request unbalances" false
    (S.balanced { o with completed = 89 });
  Alcotest.(check bool) "a double-counted request unbalances" false
    (S.balanced { o with shed = 7 })

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "sample count" `Quick test_sample_count;
          Alcotest.test_case "median and geomean" `Quick test_median_geomean;
          Alcotest.test_case "open-loop latency" `Quick test_open_loop;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "serve accounting" `Quick test_accounting;
        ] );
    ]
