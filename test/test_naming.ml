(* Tests for LOIDs, Object Addresses, Bindings and the binding cache. *)

module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Cache = Legion_naming.Cache
module Prng = Legion_util.Prng
module Value = Legion_wire.Value

let loid_t = Alcotest.testable Loid.pp Loid.equal
let addr_t = Alcotest.testable Address.pp Address.equal
let binding_t = Alcotest.testable Binding.pp Binding.equal

(* --- LOIDs (§3.2) --- *)

let test_loid_fields () =
  let l = Loid.make ~public_key:"pk" ~class_id:7L ~class_specific:42L () in
  Alcotest.(check int64) "cid" 7L (Loid.class_id l);
  Alcotest.(check int64) "spec" 42L (Loid.class_specific l);
  Alcotest.(check string) "key" "pk" (Loid.public_key l);
  Alcotest.(check bool) "not a class" false (Loid.is_class l)

let test_loid_responsible_class () =
  let l = Loid.make ~public_key:"pk" ~class_id:7L ~class_specific:42L () in
  let c = Loid.responsible_class l in
  Alcotest.(check int64) "same cid" 7L (Loid.class_id c);
  Alcotest.(check int64) "spec zeroed" 0L (Loid.class_specific c);
  Alcotest.(check string) "no key" "" (Loid.public_key c);
  Alcotest.(check bool) "is a class" true (Loid.is_class c);
  (* Idempotent on key-less classes (§3.7 convention). *)
  Alcotest.check loid_t "idempotent" c (Loid.responsible_class c)

let test_loid_equality_covers_key () =
  let a = Loid.make ~public_key:"x" ~class_id:1L ~class_specific:1L () in
  let b = Loid.make ~public_key:"y" ~class_id:1L ~class_specific:1L () in
  Alcotest.(check bool) "keys distinguish" false (Loid.equal a b);
  Alcotest.(check bool) "compare nonzero" true (Loid.compare a b <> 0)

let test_loid_table () =
  let tbl = Loid.Table.create () in
  let l1 = Loid.make ~class_id:1L ~class_specific:1L () in
  let l2 = Loid.make ~class_id:1L ~class_specific:2L () in
  Loid.Table.set tbl l1 "one";
  Loid.Table.set tbl l2 "two";
  Alcotest.(check (option string)) "find" (Some "one") (Loid.Table.find tbl l1);
  Loid.Table.set tbl l1 "uno";
  Alcotest.(check (option string)) "replace" (Some "uno") (Loid.Table.find tbl l1);
  Alcotest.(check int) "length" 2 (Loid.Table.length tbl);
  Loid.Table.remove tbl l1;
  Alcotest.(check bool) "removed" false (Loid.Table.mem tbl l1)

let loid_gen =
  QCheck.Gen.(
    map3
      (fun cid spec key -> Loid.make ~public_key:key ~class_id:cid ~class_specific:spec ())
      int64 int64 (string_size (0 -- 8)))

let arbitrary_loid = QCheck.make ~print:Loid.to_string loid_gen

let loid_roundtrip =
  QCheck.Test.make ~name:"loid wire roundtrip" ~count:300 arbitrary_loid
    (fun l ->
      match Loid.of_value (Loid.to_value l) with
      | Ok l' -> Loid.equal l l'
      | Error _ -> false)

(* Loid.Ordered against an association-list model kept newest first:
   [add] drops any old binding and puts the key in front, [promote]
   moves a present key to the front, [remove] drops it; with a capacity
   an absent key added to a full table first drops the model's last
   (oldest) entry and counts an eviction. Keys come from a small range
   so re-adds and removals of present keys are common. *)
type ordered_op = Add of int * int | Remove of int | Find of int | Promote of int

let ordered_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Add (k, v)) (0 -- 15) nat);
        (2, map (fun k -> Remove k) (0 -- 15));
        (1, map (fun k -> Find k) (0 -- 15));
        (1, map (fun k -> Promote k) (0 -- 15));
      ])

let print_ordered_op = function
  | Add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Find k -> Printf.sprintf "Find %d" k
  | Promote k -> Printf.sprintf "Promote %d" k

let ordered_matches_model =
  let key i = Loid.make ~class_id:3L ~class_specific:(Int64.of_int i) () in
  QCheck.Test.make ~name:"ordered table matches list model" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (option int) (list print_ordered_op))
       QCheck.Gen.(
         pair (opt ~ratio:0.5 (0 -- 6)) (list_size (0 -- 60) ordered_op_gen)))
    (fun (capacity, ops) ->
      let t = Loid.Ordered.create ?capacity () in
      let evictions = ref 0 in
      let without k = List.filter (fun (l, _) -> not (Loid.equal l (key k))) in
      let lookup k model =
        List.find_map (fun (l, v) -> if Loid.equal l (key k) then Some v else None) model
      in
      let step model op =
        let model =
          match op with
          | Add (k, v) -> (
              Loid.Ordered.add t (key k) v;
              let present = lookup k model <> None in
              match capacity with
              | Some 0 when not present -> model
              | Some c when (not present) && List.length model >= c ->
                  incr evictions;
                  (key k, v) :: List.filteri (fun i _ -> i < c - 1) model
              | _ -> (key k, v) :: without k model)
          | Remove k ->
              Loid.Ordered.remove t (key k);
              without k model
          | Find k ->
              if Loid.Ordered.find t (key k) <> lookup k model then
                QCheck.Test.fail_reportf "find %d disagrees" k;
              model
          | Promote k -> (
              let expect = lookup k model in
              if Loid.Ordered.promote t (key k) <> expect then
                QCheck.Test.fail_reportf "promote %d disagrees" k;
              match expect with
              | Some v -> (key k, v) :: without k model
              | None -> model)
        in
        let listed = Loid.Ordered.to_list t in
        let folded = List.rev (Loid.Ordered.fold (fun l v acc -> (l, v) :: acc) t []) in
        let same a b =
          List.length a = List.length b
          && List.for_all2 (fun (l, v) (l', v') -> Loid.equal l l' && v = v') a b
        in
        if not (same listed model && same folded model) then
          QCheck.Test.fail_report "order or contents differ from the model";
        if Loid.Ordered.length t <> List.length model then
          QCheck.Test.fail_report "length differs from the model";
        if Loid.Ordered.evictions t <> !evictions then
          QCheck.Test.fail_report "evictions differ from the model";
        if not (same (Loid.Ordered.to_list (Loid.Ordered.of_list listed)) model) then
          QCheck.Test.fail_report "of_list is not the inverse of to_list";
        model
      in
      ignore (List.fold_left step [] ops);
      true)

(* The class's logical table and the Magistrate's records, after
   interleaved Create/Delete, list their rows newest first, and their
   saved state is a fixed point of save -> restore -> save. *)
let test_ordered_state_roundtrip () =
  let sys = Helpers.boot_one_site () in
  let ctx = Legion.System.client sys () in
  let cls = Helpers.make_counter_class sys ctx () in
  let mag = List.hd (Legion.System.magistrates sys) in
  let create () = Legion.Api.create_object_exn sys ctx ~cls ~magistrate:mag () in
  let delete loid =
    match Legion.Api.delete_object sys ctx ~cls ~loid with
    | Ok () -> ()
    | Error e -> Alcotest.failf "delete: %s" (Legion_rt.Err.to_string e)
  in
  (* [live] is the model, newest first. *)
  let live = ref [] in
  for i = 1 to 24 do
    live := create () :: !live;
    if i mod 3 = 0 then begin
      let victim = List.nth !live (i mod List.length !live) in
      delete victim;
      live := List.filter (fun l -> not (Loid.equal l victim)) !live
    end
  done;
  let call dst meth args = Legion.Api.call_exn sys ctx ~dst ~meth ~args in
  let unit_state dst unit_name =
    match call dst "SaveState" [] with
    | Value.Record fields -> (List.assoc unit_name fields, Value.Record fields)
    | v -> Alcotest.failf "SaveState: %s" (Value.to_string v)
  in
  let listed field v =
    match Value.field v field with
    | Ok (Value.List rows) ->
        List.filter_map
          (fun row ->
            match Option.map Loid.of_value (Result.to_option (Value.field row "loid")) with
            | Some (Ok l)
              when (not (Loid.is_class l)) && Loid.equal (Loid.responsible_class l) cls ->
                Some l
            | _ -> None)
          rows
    | _ -> Alcotest.failf "no %s list" field
  in
  let check_roundtrip dst unit_name field =
    let st, whole = unit_state dst unit_name in
    Alcotest.(check (list loid_t)) (field ^ " newest first") !live (listed field st);
    ignore (call dst "RestoreState" [ whole ]);
    let _, again = unit_state dst unit_name in
    Alcotest.(check string) (field ^ " save/restore/save is a fixed point")
      (Legion_wire.Codec.encode whole) (Legion_wire.Codec.encode again)
  in
  check_roundtrip cls Legion_core.Class_part.unit_name "table";
  check_roundtrip mag Legion_jur.Magistrate_part.unit_name "records";
  (* The restored tables still find rows: deleting through them works. *)
  List.iter delete !live;
  match call cls "ListInstances" [] with
  | Value.List [] -> ()
  | v -> Alcotest.failf "instances left after delete: %s" (Value.to_string v)

(* --- Addresses (§3.4) --- *)

let element_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun h p -> Address.Ip { host = h; port = p land 0xFFFF }) int32 int;
        map3
          (fun h p n -> Address.Ip_node { host = h; port = p land 0xFFFF; node = n land 0xFF })
          int32 int int;
        map2 (fun h s -> Address.Sim { host = h land 0xFFFF; slot = s land 0xFFFF }) int int;
        map2
          (fun t payload -> Address.Raw { addr_type = t; payload })
          int32 (string_size (0 -- 8));
      ])

let semantic_gen =
  QCheck.Gen.(
    oneof
      [
        return Address.All;
        return Address.Any_random;
        map (fun k -> Address.First_k (abs k mod 5)) int;
        map (fun k -> Address.K_random (abs k mod 5)) int;
        return Address.Ordered_failover;
        map (fun s -> Address.Custom s) (string_size (1 -- 6));
      ])

let address_gen =
  QCheck.Gen.(
    map2
      (fun els sem -> Address.make ~semantic:sem els)
      (list_size (1 -- 5) element_gen)
      semantic_gen)

let arbitrary_address =
  QCheck.make ~print:(Format.asprintf "%a" Address.pp) address_gen

let address_roundtrip =
  QCheck.Test.make ~name:"address wire roundtrip" ~count:300 arbitrary_address
    (fun a ->
      match Address.of_value (Address.to_value a) with
      | Ok a' -> Address.equal a a'
      | Error _ -> false)

let test_address_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Address.make: empty element list")
    (fun () -> ignore (Address.make []))

let test_address_targets () =
  let e1 = Address.Sim { host = 1; slot = 1 } in
  let e2 = Address.Sim { host = 2; slot = 2 } in
  let e3 = Address.Sim { host = 3; slot = 3 } in
  let prng = Prng.create ~seed:1L in
  let all = Address.make ~semantic:Address.All [ e1; e2; e3 ] in
  Alcotest.(check int) "all" 3 (List.length (Address.targets all prng));
  let k2 = Address.make ~semantic:(Address.First_k 2) [ e1; e2; e3 ] in
  Alcotest.(check int) "first 2" 2 (List.length (Address.targets k2 prng));
  let anyr = Address.make ~semantic:Address.Any_random [ e1; e2; e3 ] in
  for _ = 1 to 20 do
    match Address.targets anyr prng with
    | [ e ] ->
        Alcotest.(check bool) "member" true (List.mem e [ e1; e2; e3 ])
    | _ -> Alcotest.fail "any_random must pick exactly one"
  done;
  let fo = Address.make ~semantic:Address.Ordered_failover [ e1; e2; e3 ] in
  Alcotest.(check bool) "failover preserves order" true
    (Address.targets fo prng = [ e1; e2; e3 ]);
  let kr = Address.make ~semantic:(Address.K_random 2) [ e1; e2; e3 ] in
  for _ = 1 to 20 do
    let ts = Address.targets kr prng in
    Alcotest.(check int) "k random picks k" 2 (List.length ts);
    Alcotest.(check int) "k random distinct" 2
      (List.length (List.sort_uniq compare ts));
    List.iter
      (fun e -> Alcotest.(check bool) "member" true (List.mem e [ e1; e2; e3 ]))
      ts
  done;
  (* Oversized k clamps to N. *)
  let kr9 = Address.make ~semantic:(Address.K_random 9) [ e1; e2 ] in
  Alcotest.(check int) "k clamps" 2 (List.length (Address.targets kr9 prng))

let test_address_types () =
  Alcotest.(check int32) "ip" 1l (Address.addr_type (Address.Ip { host = 0l; port = 0 }));
  Alcotest.(check int32) "sim" 3l
    (Address.addr_type (Address.Sim { host = 0; slot = 0 }));
  Alcotest.(check (option int)) "sim host" (Some 4)
    (Address.sim_host (Address.Sim { host = 4; slot = 0 }));
  Alcotest.(check (option int)) "ip no sim host" None
    (Address.sim_host (Address.Ip { host = 0l; port = 0 }))

(* --- Bindings (§3.5) --- *)

let sample_loid = Loid.make ~class_id:9L ~class_specific:9L ()
let sample_addr = Address.singleton (Address.Sim { host = 0; slot = 0 })

let test_binding_validity () =
  let never = Binding.make ~loid:sample_loid ~address:sample_addr () in
  Alcotest.(check bool) "no expiry valid" true (Binding.is_valid ~now:1e12 never);
  let till5 = Binding.make ~expires:5.0 ~loid:sample_loid ~address:sample_addr () in
  Alcotest.(check bool) "before expiry" true (Binding.is_valid ~now:4.9 till5);
  Alcotest.(check bool) "at expiry invalid" false (Binding.is_valid ~now:5.0 till5);
  let refreshed = Binding.with_expiry till5 None in
  Alcotest.(check bool) "expiry cleared" true (Binding.is_valid ~now:1e12 refreshed)

let binding_gen =
  QCheck.Gen.(
    map3
      (fun l a e ->
        Binding.make ?expires:(if e < 0.0 then None else Some e) ~loid:l ~address:a ())
      loid_gen address_gen (float_range (-1.0) 100.0))

let arbitrary_binding =
  QCheck.make ~print:(Format.asprintf "%a" Binding.pp) binding_gen

let binding_roundtrip =
  QCheck.Test.make ~name:"binding wire roundtrip" ~count:300 arbitrary_binding
    (fun b ->
      match Binding.of_value (Binding.to_value b) with
      | Ok b' -> Binding.equal b b'
      | Error _ -> false)

(* --- Cache --- *)

let mk_binding ?expires i =
  let loid = Loid.make ~class_id:100L ~class_specific:(Int64.of_int i) () in
  Binding.make ?expires ~loid ~address:(Address.singleton (Address.Sim { host = i; slot = i })) ()

let loid_of i = Loid.make ~class_id:100L ~class_specific:(Int64.of_int i) ()

let test_cache_hit_miss () =
  let c = Cache.create () in
  Cache.add c ~now:0.0 (mk_binding 1);
  Alcotest.(check bool) "hit" true (Cache.find c ~now:0.0 (loid_of 1) <> None);
  Alcotest.(check bool) "miss" true (Cache.find c ~now:0.0 (loid_of 2) = None);
  Alcotest.(check int) "lookups" 2 (Cache.lookups c);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Cache.hit_rate c)

let test_cache_expiry () =
  let c = Cache.create () in
  Cache.add c ~now:0.0 (mk_binding ~expires:5.0 1);
  Alcotest.(check bool) "valid before" true (Cache.find c ~now:4.0 (loid_of 1) <> None);
  Alcotest.(check bool) "expired after" true (Cache.find c ~now:6.0 (loid_of 1) = None);
  Alcotest.(check int) "purged" 0 (Cache.length c);
  (* Adding an already-expired binding is a no-op. *)
  Cache.add c ~now:10.0 (mk_binding ~expires:5.0 2);
  Alcotest.(check int) "expired not added" 0 (Cache.length c)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  Cache.add c ~now:0.0 (mk_binding 2);
  (* Touch 1 so 2 is the LRU victim. *)
  ignore (Cache.find c ~now:0.0 (loid_of 1));
  Cache.add c ~now:0.0 (mk_binding 3);
  Alcotest.(check bool) "1 kept" true (Cache.mem c ~now:0.0 (loid_of 1));
  Alcotest.(check bool) "2 evicted" false (Cache.mem c ~now:0.0 (loid_of 2));
  Alcotest.(check bool) "3 present" true (Cache.mem c ~now:0.0 (loid_of 3));
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c)

let test_cache_replace_no_evict () =
  let c = Cache.create ~capacity:1 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  (* Replacing the same LOID must not evict. *)
  Cache.add c ~now:0.0 (mk_binding 1);
  Alcotest.(check int) "no eviction on replace" 0 (Cache.evictions c);
  Alcotest.(check int) "length 1" 1 (Cache.length c)

let test_cache_zero_capacity () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  Alcotest.(check int) "nothing cached" 0 (Cache.length c)

let test_cache_invalidate () =
  let c = Cache.create () in
  let b1 = mk_binding 1 in
  Cache.add c ~now:0.0 b1;
  Cache.invalidate c (loid_of 1);
  Alcotest.(check bool) "gone" false (Cache.mem c ~now:0.0 (loid_of 1));
  Cache.add c ~now:0.0 b1;
  (* invalidate_exact with a different binding is a no-op. *)
  let other =
    Binding.make ~loid:(loid_of 1)
      ~address:(Address.singleton (Address.Sim { host = 99; slot = 99 }))
      ()
  in
  Cache.invalidate_exact c other;
  Alcotest.(check bool) "exact mismatch kept" true (Cache.mem c ~now:0.0 (loid_of 1));
  Cache.invalidate_exact c b1;
  Alcotest.(check bool) "exact match removed" false (Cache.mem c ~now:0.0 (loid_of 1))

let test_cache_clear_resets_stats () =
  let c = Cache.create ~capacity:1 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  ignore (Cache.find c ~now:0.0 (loid_of 1));
  Cache.add c ~now:0.0 (mk_binding 2) (* evicts 1 *);
  Cache.clear c;
  Alcotest.(check int) "emptied" 0 (Cache.length c);
  (* A cleared cache is statistically indistinguishable from a fresh
     one: lookups, hits and evictions all reset. *)
  Alcotest.(check int) "lookups reset" 0 (Cache.lookups c);
  Alcotest.(check int) "hits reset" 0 (Cache.hits c);
  Alcotest.(check int) "evictions reset" 0 (Cache.evictions c);
  Alcotest.(check (float 1e-9)) "rate reset" 0.0 (Cache.hit_rate c);
  Cache.add c ~now:0.0 (mk_binding 2);
  Alcotest.(check bool) "usable after clear" true (Cache.mem c ~now:0.0 (loid_of 2));
  Alcotest.(check (option int)) "capacity preserved" (Some 1) (Cache.capacity c)

let test_cache_mem_purges_and_counts_nothing () =
  let c = Cache.create () in
  Cache.add c ~now:0.0 (mk_binding ~expires:5.0 1);
  Alcotest.(check bool) "present before expiry" true (Cache.mem c ~now:1.0 (loid_of 1));
  Alcotest.(check int) "mem counts no lookups" 0 (Cache.lookups c);
  Alcotest.(check bool) "absent after expiry" false (Cache.mem c ~now:6.0 (loid_of 1));
  Alcotest.(check int) "expired entry purged by mem" 0 (Cache.length c);
  Alcotest.(check int) "still no lookups" 0 (Cache.lookups c);
  Alcotest.(check int) "still no hits" 0 (Cache.hits c)

let test_cache_find_refresh () =
  let c = Cache.create () in
  let stale = mk_binding 1 in
  Cache.add c ~now:0.0 stale;
  (* The cache still holds the failing binding: refresh must not
     re-serve it — purge, report a miss, count one lookup. *)
  Alcotest.(check bool) "stale entry is a miss" true
    (Cache.find_refresh c ~now:0.0 ~stale = None);
  Alcotest.(check int) "stale entry purged" 0 (Cache.length c);
  Alcotest.(check int) "one lookup counted" 1 (Cache.lookups c);
  Alcotest.(check int) "no hit" 0 (Cache.hits c);
  (* A *different* cached binding for the same LOID is a hit. *)
  let fresh =
    Binding.make ~loid:(loid_of 1)
      ~address:(Address.singleton (Address.Sim { host = 9; slot = 9 }))
      ()
  in
  Cache.add c ~now:0.0 fresh;
  (match Cache.find_refresh c ~now:0.0 ~stale with
  | Some b ->
      Alcotest.(check bool) "different binding served" true (Binding.equal b fresh)
  | None -> Alcotest.fail "fresh binding not served");
  Alcotest.(check int) "two lookups" 2 (Cache.lookups c);
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  (* An expired replacement is a miss too, and gets purged. *)
  let expiring =
    Binding.make ~expires:5.0 ~loid:(loid_of 1)
      ~address:(Address.singleton (Address.Sim { host = 8; slot = 8 }))
      ()
  in
  Cache.add c ~now:0.0 expiring;
  Alcotest.(check bool) "expired replacement is a miss" true
    (Cache.find_refresh c ~now:6.0 ~stale = None);
  Alcotest.(check int) "expired replacement purged" 0 (Cache.length c)

(* Replay a random op sequence against a counter model: exactly [find]
   and [find_refresh] count lookups, hits never exceed lookups, [clear]
   resets to a fresh cache, and no op ever serves an expired or
   known-stale binding. *)
let cache_stats_invariants =
  QCheck.Test.make ~name:"cache statistics invariants" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (small_list
           (pair (int_range 0 5) (pair (int_range 0 6) (float_range 0.5 20.0)))))
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      let lookups = ref 0 and hits = ref 0 in
      let now = ref 0.0 in
      let ok = ref true in
      List.iter
        (fun (tag, (i, e)) ->
          now := !now +. 0.25;
          (match tag with
          | 0 -> Cache.add c ~now:!now (mk_binding ~expires:(!now +. e) i)
          | 1 -> (
              incr lookups;
              match Cache.find c ~now:!now (loid_of i) with
              | Some b ->
                  incr hits;
                  if not (Binding.is_valid ~now:!now b) then ok := false
              | None -> ())
          | 2 ->
              (* mem agrees with find and counts nothing itself; the
                 cross-checking find is modelled as one lookup. *)
              let m = Cache.mem c ~now:!now (loid_of i) in
              incr lookups;
              let f = Cache.find c ~now:!now (loid_of i) in
              if m <> (f <> None) then ok := false;
              if f <> None then incr hits
          | 3 -> Cache.invalidate c (loid_of i)
          | 4 -> (
              incr lookups;
              match Cache.find_refresh c ~now:!now ~stale:(mk_binding i) with
              | Some b ->
                  incr hits;
                  if Binding.equal b (mk_binding i) then ok := false;
                  if not (Binding.is_valid ~now:!now b) then ok := false
              | None -> ())
          | _ ->
              Cache.clear c;
              lookups := 0;
              hits := 0);
          if Cache.lookups c <> !lookups then ok := false;
          if Cache.hits c <> !hits then ok := false;
          if Cache.hits c > Cache.lookups c then ok := false;
          if Cache.length c > cap then ok := false)
        ops;
      !ok)

let test_loid_map_set () =
  let l1 = Loid.make ~class_id:1L ~class_specific:1L () in
  let l2 = Loid.make ~class_id:1L ~class_specific:2L () in
  let m = Loid.Map.(add l1 "a" (add l2 "b" empty)) in
  Alcotest.(check (option string)) "map find" (Some "a") (Loid.Map.find_opt l1 m);
  let s = Loid.Set.of_list [ l1; l2; l1 ] in
  Alcotest.(check int) "set dedups" 2 (Loid.Set.cardinal s)

(* Cache against an association-list LRU model kept most recent first:
   [add] and the hits of [find] and [find_refresh] move the LOID to the
   front, [mem] leaves the order alone, and adding an absent LOID to a
   full cache evicts the model's last entry. Checking membership of
   every LOID after each step pins down which entry each eviction
   chose. Variants give one LOID several distinct bindings, so the
   exact forms ([invalidate_exact], the refresh's stale binding) both
   match and miss. *)
type cache_op =
  | C_add of int * int
  | C_find of int
  | C_refresh of int * int
  | C_mem of int
  | C_invalidate of int
  | C_exact of int * int

let cache_op_gen =
  QCheck.Gen.(
    let kv f = map2 f (0 -- 7) (0 -- 2) in
    frequency
      [
        (4, kv (fun k v -> C_add (k, v)));
        (3, map (fun k -> C_find k) (0 -- 7));
        (2, kv (fun k v -> C_refresh (k, v)));
        (1, map (fun k -> C_mem k) (0 -- 7));
        (1, map (fun k -> C_invalidate k) (0 -- 7));
        (1, kv (fun k v -> C_exact (k, v)));
      ])

let print_cache_op = function
  | C_add (k, v) -> Printf.sprintf "add(%d,%d)" k v
  | C_find k -> Printf.sprintf "find %d" k
  | C_refresh (k, v) -> Printf.sprintf "refresh(%d,%d)" k v
  | C_mem k -> Printf.sprintf "mem %d" k
  | C_invalidate k -> Printf.sprintf "invalidate %d" k
  | C_exact (k, v) -> Printf.sprintf "exact(%d,%d)" k v

let cache_matches_lru_model =
  let variant k v =
    Binding.make ~loid:(loid_of k)
      ~address:(Address.singleton (Address.Sim { host = k; slot = v }))
      ()
  in
  QCheck.Test.make ~name:"cache matches LRU list model" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_cache_op))
       QCheck.Gen.(pair (1 -- 6) (list_size (0 -- 80) cache_op_gen)))
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      let evictions = ref 0 and lookups = ref 0 and hits = ref 0 in
      let without k = List.filter (fun (k', _) -> k' <> k) in
      let served what got expect =
        let same =
          match (got, expect) with
          | Some b, Some v -> Binding.equal b v
          | None, None -> true
          | _ -> false
        in
        if not same then QCheck.Test.fail_reportf "%s disagrees with the model" what
      in
      let hit k model =
        incr lookups;
        match List.assoc_opt k model with
        | Some b ->
            incr hits;
            (Some b, (k, b) :: without k model)
        | None -> (None, model)
      in
      let step model op =
        let model =
          match op with
          | C_add (k, v) ->
              Cache.add c ~now:0.0 (variant k v);
              if List.mem_assoc k model || List.length model < cap then
                (k, variant k v) :: without k model
              else begin
                incr evictions;
                (k, variant k v) :: List.filteri (fun i _ -> i < cap - 1) model
              end
          | C_find k ->
              let expect, model = hit k model in
              served "find" (Cache.find c ~now:0.0 (loid_of k)) expect;
              model
          | C_refresh (k, v) ->
              let stale = variant k v in
              let got = Cache.find_refresh c ~now:0.0 ~stale in
              let expect, model =
                match List.assoc_opt k model with
                | Some b when Binding.equal b stale ->
                    incr lookups;
                    (None, without k model)
                | _ -> hit k model
              in
              served "find_refresh" got expect;
              model
          | C_mem k ->
              if Cache.mem c ~now:0.0 (loid_of k) <> List.mem_assoc k model then
                QCheck.Test.fail_reportf "mem %d disagrees with the model" k;
              model
          | C_invalidate k ->
              Cache.invalidate c (loid_of k);
              without k model
          | C_exact (k, v) -> (
              Cache.invalidate_exact c (variant k v);
              match List.assoc_opt k model with
              | Some b when Binding.equal b (variant k v) -> without k model
              | _ -> model)
        in
        for k = 0 to 7 do
          if Cache.mem c ~now:0.0 (loid_of k) <> List.mem_assoc k model then
            QCheck.Test.fail_reportf "after %s: LOID %d %s" (print_cache_op op) k
              (if List.mem_assoc k model then "evicted early" else "kept wrongly")
        done;
        if Cache.length c <> List.length model then
          QCheck.Test.fail_report "length differs from the model";
        if Cache.evictions c <> !evictions then
          QCheck.Test.fail_report "evictions differ from the model";
        if Cache.lookups c <> !lookups || Cache.hits c <> !hits then
          QCheck.Test.fail_report "lookups or hits differ from the model";
        model
      in
      ignore (List.fold_left step [] ops);
      true)

let cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      List.iter (fun i -> Cache.add c ~now:0.0 (mk_binding i)) ops;
      Cache.length c <= cap)

let cache_never_returns_expired =
  QCheck.Test.make ~name:"cache never returns an expired binding" ~count:200
    QCheck.(small_list (pair (int_range 0 10) (float_range 0.1 10.0)))
    (fun ops ->
      let c = Cache.create () in
      List.iter (fun (i, e) -> Cache.add c ~now:0.0 (mk_binding ~expires:e i)) ops;
      List.for_all
        (fun (i, _) ->
          match Cache.find c ~now:5.0 (loid_of i) with
          | None -> true
          | Some b -> Binding.is_valid ~now:5.0 b)
        ops)

let () =
  Alcotest.run "naming"
    [
      ( "loid",
        [
          Alcotest.test_case "fields" `Quick test_loid_fields;
          Alcotest.test_case "responsible class" `Quick test_loid_responsible_class;
          Alcotest.test_case "public key in identity" `Quick
            test_loid_equality_covers_key;
          Alcotest.test_case "table" `Quick test_loid_table;
          Alcotest.test_case "map and set" `Quick test_loid_map_set;
          QCheck_alcotest.to_alcotest loid_roundtrip;
          QCheck_alcotest.to_alcotest ordered_matches_model;
          Alcotest.test_case "class and Magistrate tables round-trip" `Quick
            test_ordered_state_roundtrip;
        ] );
      ( "address",
        [
          Alcotest.test_case "empty rejected" `Quick test_address_empty_rejected;
          Alcotest.test_case "semantics resolve targets" `Quick test_address_targets;
          Alcotest.test_case "address type tags" `Quick test_address_types;
          QCheck_alcotest.to_alcotest address_roundtrip;
        ] );
      ( "binding",
        [
          Alcotest.test_case "validity and expiry" `Quick test_binding_validity;
          QCheck_alcotest.to_alcotest binding_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit and miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "expiry" `Quick test_cache_expiry;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
          Alcotest.test_case "replace does not evict" `Quick test_cache_replace_no_evict;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "invalidation forms" `Quick test_cache_invalidate;
          Alcotest.test_case "clear resets statistics" `Quick
            test_cache_clear_resets_stats;
          Alcotest.test_case "mem purges and counts nothing" `Quick
            test_cache_mem_purges_and_counts_nothing;
          Alcotest.test_case "find_refresh (GetBinding refresh form)" `Quick
            test_cache_find_refresh;
          QCheck_alcotest.to_alcotest cache_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest cache_never_returns_expired;
          QCheck_alcotest.to_alcotest cache_stats_invariants;
          QCheck_alcotest.to_alcotest cache_matches_lru_model;
        ] );
    ]

let _ = ignore (addr_t, binding_t)
