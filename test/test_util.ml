module Rng = Mf_util.Rng
module Bitset = Mf_util.Bitset
module Heap = Mf_util.Heap
module Union_find = Mf_util.Union_find

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    check Alcotest.bool "int in range" true (x >= 0 && x < 17);
    let f = Rng.uniform rng in
    check Alcotest.bool "uniform in range" true (f >= 0. && f < 1.)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:11 in
  let child = Rng.split parent in
  let c1 = List.init 10 (fun _ -> Rng.int child 100) in
  let p1 = List.init 10 (fun _ -> Rng.int parent 100) in
  check Alcotest.bool "child differs from parent" true (c1 <> p1)

let test_rng_copy () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  check Alcotest.int "copy same future" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:13 in
  let n = 20_000 in
  let total = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    total := !total +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !total /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check Alcotest.bool "mean near 0" true (abs_float mean < 0.05);
  check Alcotest.bool "variance near 1" true (abs_float (var -. 1.) < 0.1)

let test_rng_pick () =
  let rng = Rng.create ~seed:21 in
  let arr = [| 5; 6; 7 |] in
  for _ = 1 to 50 do
    check Alcotest.bool "pick member" true (Array.mem (Rng.pick rng arr) arr)
  done;
  check Alcotest.bool "pick_list member" true (List.mem (Rng.pick_list rng [ 1; 2 ]) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let s = Bitset.create 20 in
  check Alcotest.bool "initially empty" true (Bitset.is_empty s);
  Bitset.add s 3;
  Bitset.add s 19;
  check Alcotest.bool "mem 3" true (Bitset.mem s 3);
  check Alcotest.bool "mem 19" true (Bitset.mem s 19);
  check Alcotest.bool "not mem 4" false (Bitset.mem s 4);
  check Alcotest.int "cardinal" 2 (Bitset.cardinal s);
  Bitset.remove s 3;
  check Alcotest.bool "removed" false (Bitset.mem s 3);
  check Alcotest.(list int) "elements" [ 19 ] (Bitset.elements s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index 8 out of [0,8)") (fun () ->
      Bitset.add s 8)

let test_bitset_fill_clear () =
  let s = Bitset.create 13 in
  Bitset.fill s;
  check Alcotest.int "full" 13 (Bitset.cardinal s);
  Bitset.clear s;
  check Alcotest.bool "cleared" true (Bitset.is_empty s)

let test_bitset_setops () =
  let a = Bitset.of_list 16 [ 1; 3; 5; 15 ] in
  let b = Bitset.of_list 16 [ 3; 4; 15 ] in
  let u = Bitset.copy a in
  Bitset.union_into u b;
  check Alcotest.(list int) "union" [ 1; 3; 4; 5; 15 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  check Alcotest.(list int) "inter" [ 3; 15 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into d b;
  check Alcotest.(list int) "diff" [ 1; 5 ] (Bitset.elements d)

let test_bitset_equal () =
  let a = Bitset.of_list 10 [ 2; 7 ] in
  let b = Bitset.of_list 10 [ 7; 2 ] in
  check Alcotest.bool "equal" true (Bitset.equal a b);
  Bitset.add b 0;
  check Alcotest.bool "not equal" false (Bitset.equal a b)

(* model-based property tests against a sorted-list set model *)
let bitset_model_prop =
  QCheck.Test.make ~name:"bitset matches list-set model" ~count:200
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let s = Bitset.create 64 in
      let model = ref [] in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            if not (List.mem i !model) then model := i :: !model
          end
          else begin
            Bitset.remove s i;
            model := List.filter (( <> ) i) !model
          end)
        ops;
      Bitset.elements s = List.sort compare !model
      && Bitset.cardinal s = List.length !model)

let bitset_union_prop =
  QCheck.Test.make ~name:"bitset union is commutative" ~count:200
    QCheck.(pair (list (int_bound 31)) (list (int_bound 31)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 32 xs and b = Bitset.of_list 32 ys in
      let ab = Bitset.copy a and ba = Bitset.copy b in
      Bitset.union_into ab b;
      Bitset.union_into ba a;
      Bitset.equal ab ba)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p (int_of_float p)) [ 5.; 1.; 4.; 2.; 3. ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
      order := v :: !order;
      drain ()
  in
  drain ();
  check Alcotest.(list int) "sorted ascending" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_heap_empty () =
  let h = Heap.create () in
  check Alcotest.bool "pop empty" true (Heap.pop h = None);
  check Alcotest.bool "peek empty" true (Heap.peek h = None);
  check Alcotest.bool "is_empty" true (Heap.is_empty h)

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h 2. "b";
  Heap.push h 1. "a";
  check Alcotest.(option (pair (float 0.0) string)) "peek min" (Some (1., "a")) (Heap.peek h);
  check Alcotest.int "size" 2 (Heap.size h);
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

let heap_sort_prop =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p p) prios;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_union_find () =
  let uf = Union_find.create 6 in
  check Alcotest.int "initial components" 6 (Union_find.count uf);
  check Alcotest.bool "union fresh" true (Union_find.union uf 0 1);
  check Alcotest.bool "union again" false (Union_find.union uf 1 0);
  check Alcotest.bool "same" true (Union_find.same uf 0 1);
  check Alcotest.bool "not same" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  check Alcotest.bool "transitive" true (Union_find.same uf 0 2);
  check Alcotest.int "components" 3 (Union_find.count uf)

let union_find_prop =
  QCheck.Test.make ~name:"union-find matches naive partition" ~count:100
    QCheck.(list (pair (int_bound 15) (int_bound 15)))
    (fun unions ->
      let uf = Union_find.create 16 in
      let naive = Array.init 16 (fun i -> i) in
      let rec naive_root i = if naive.(i) = i then i else naive_root naive.(i) in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf a b);
          let ra = naive_root a and rb = naive_root b in
          if ra <> rb then naive.(ra) <- rb)
        unions;
      List.for_all
        (fun (a, b) -> Union_find.same uf a b = (naive_root a = naive_root b))
        (List.concat_map (fun a -> List.map (fun b -> (a, b)) [ 0; 5; 10; 15 ]) [ 0; 3; 7; 15 ]))

(* ------------------------------------------------------------------ *)
(* Lru *)

module Lru = Mf_util.Lru

let test_lru_basic () =
  let l = Lru.create ~capacity:2 in
  check Alcotest.bool "fits" true (Lru.add l "a" 1 = None);
  check Alcotest.bool "fits" true (Lru.add l "b" 2 = None);
  check Alcotest.bool "find refreshes" true (Lru.find l "a" = Some 1);
  (* "b" is now least-recently-used and gets evicted *)
  check Alcotest.bool "evicts lru" true (Lru.add l "c" 3 = Some ("b", 2));
  check Alcotest.bool "evicted gone" false (Lru.mem l "b");
  check Alcotest.int "length" 2 (Lru.length l);
  check Alcotest.bool "mru order" true (List.map fst (Lru.to_list l) = [ "c"; "a" ])

let test_lru_replace_and_remove () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" 1);
  check Alcotest.bool "replace, no eviction" true (Lru.add l "a" 10 = None);
  check Alcotest.bool "replaced value" true (Lru.peek l "a" = Some 10);
  check Alcotest.int "no duplicate node" 1 (Lru.length l);
  Lru.remove l "a";
  check Alcotest.int "removed" 0 (Lru.length l);
  Lru.remove l "a" (* idempotent *)

let lru_model_prop =
  QCheck.Test.make ~name:"lru matches naive model" ~count:200
    QCheck.(pair (int_range 1 4) (list (pair (int_bound 7) (int_bound 100))))
    (fun (cap, ops) ->
      let l = Lru.create ~capacity:cap in
      (* naive model: association list, most recent first *)
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          ignore (Lru.add l k v);
          model := (k, v) :: List.remove_assoc k !model;
          if List.length !model > cap then
            model := List.filteri (fun i _ -> i < cap) !model)
        ops;
      Lru.to_list l = !model)

(* ------------------------------------------------------------------ *)
(* Snapshot: verified round trips and the typed error of each failure *)

let test_snapshot_typed_errors () =
  let module Snapshot = Mf_util.Snapshot in
  let dir = Filename.temp_dir "mfdft_snapshot" "" in
  let path = Filename.concat dir "f" in
  let error = Alcotest.testable (fun ppf e -> Fmt.string ppf (Snapshot.error_message e)) ( = ) in
  let result = Alcotest.result Alcotest.string error in
  check result "missing" (Error Snapshot.Missing) (Snapshot.read ~magic:"m-v1" path);
  Snapshot.write ~magic:"m-v1" path "line one\nline two";
  check result "round trip" (Ok "line one\nline two") (Snapshot.read ~magic:"m-v1" path);
  check result "other magic" (Error Snapshot.Wrong_magic) (Snapshot.read ~magic:"m-v2" path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "m-v1 00\npayload");
  check result "digest mismatch" (Error Snapshot.Corrupt) (Snapshot.read ~magic:"m-v1" path);
  Snapshot.save ~magic:"pairs-v1" path [ (1, "a"); (2, "b") ];
  check Alcotest.bool "marshalled round trip" true
    (Snapshot.load ~magic:"pairs-v1" path = Ok [ (1, "a"); (2, "b") ]);
  Alcotest.check_raises "magic with a space"
    (Invalid_argument "Snapshot.write: magic must not contain a space or a newline") (fun () ->
      Snapshot.write ~magic:"m v1" path "");
  Out_channel.with_open_bin (path ^ ".tmp") (fun oc -> Out_channel.output_string oc "torn");
  Snapshot.clear_tmp dir;
  check Alcotest.bool "stray tmp cleared" false (Sys.file_exists (path ^ ".tmp"));
  check Alcotest.bool "snapshot kept" true (Sys.file_exists path);
  Sys.remove path;
  Sys.rmdir dir

let () =
  let qt = QCheck_alcotest.to_alcotest in
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "fill/clear" `Quick test_bitset_fill_clear;
          Alcotest.test_case "set operations" `Quick test_bitset_setops;
          Alcotest.test_case "equality" `Quick test_bitset_equal;
          qt bitset_model_prop;
          qt bitset_union_prop;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek/size/clear" `Quick test_heap_peek;
          qt heap_sort_prop;
        ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_union_find; qt union_find_prop ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "replace/remove" `Quick test_lru_replace_and_remove;
          qt lru_model_prop;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "round trips and typed errors" `Quick test_snapshot_typed_errors ] );
    ]
