(* lib/core/store.ml: the on-disk format shared by the memo's persistent
   tier and the explore journal. A damaged entry — any single bit of it
   flipped — must read as a miss and be deleted, never return a wrong
   value or crash; an entry under another key's name or another store's
   magic is a miss too. *)

module Store = Lp_core.Store
module Memo = Lp_core.Memo
module Flow = Lp_core.Flow
module System = Lp_system.System
module E = Lp_explore.Explore

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [entry] with bit [i mod 8] of byte [i] flipped: every byte offset,
   and every bit position across the offsets. *)
let flip entry i =
  let b = Bytes.of_string entry in
  Bytes.set b i (Char.chr (Char.code entry.[i] lxor (1 lsl (i mod 8))));
  Bytes.to_string b

(* Offsets [i] of [entry] at which [check (flip entry i)] fails. *)
let bad_offsets entry check =
  List.filter
    (fun i -> not (check (flip entry i)))
    (List.init (String.length entry) Fun.id)

let with_dir prefix f =
  let dir = Lp_testkit.temp_dir prefix in
  Fun.protect ~finally:(fun () -> Lp_testkit.rm_rf dir) (fun () -> f dir)

let test_memo_bit_rot () =
  let entry = Option.get (Lp_apps.Apps.find "3d") in
  let program = entry.Lp_apps.Apps.build () in
  let config = System.default_config in
  let key = Memo.initial_fingerprint ~config program in
  let report = System.run ~config program in
  with_dir "lp-store-memo" (fun root ->
      Fun.protect
        ~finally:(fun () ->
          Memo.set_persist_dir None;
          Memo.reset ())
        (fun () ->
          Memo.set_persist_dir (Some root);
          Memo.store_initial key report;
          let path =
            Filename.concat
              (Filename.concat root
                 (Printf.sprintf "v%d" Memo.format_version))
              (Digest.to_hex key ^ ".memo")
          in
          let stored = read_file path in
          Memo.reset ();
          Alcotest.(check bool)
            "intact entry reads back" true
            (Memo.find_initial key = Some report);
          let bad =
            bad_offsets stored (fun damaged ->
                write_file path damaged;
                Memo.reset ();
                Memo.find_initial key = None && not (Sys.file_exists path))
          in
          Alcotest.(check (list int)) "flipped offsets read as a hit" [] bad))

let one_point_space =
  {
    (E.space_of_options Flow.default_options) with
    E.f_values = [ 1.0 ];
    max_cells_values = [ 8_000 ];
  }

let test_journal_bit_rot () =
  let program =
    let open Lp_ir.Builder in
    program
      ~arrays:[ array "a" 16 ]
      [
        func "main" ~params:[] ~locals:[ "s" ]
          [
            for_ "i" (int 0) (int 16) [ store "a" (var "i") (var "i" * int 5) ];
            for_ "i" (int 0) (int 16) [ "s" := var "s" + load "a" (var "i") ];
            print (var "s");
          ];
      ]
  in
  with_dir "lp-store-journal" (fun journal_dir ->
      let explore () =
        E.run ~space:one_point_space ~jobs:1 ~journal_dir ~name:"bitrot"
          program
      in
      let first = explore () in
      let metrics (r : E.result) =
        List.map (fun (o : E.outcome) -> o.E.metrics) r.E.log
      in
      let rec points dir =
        List.concat_map
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then points p
            else if Filename.check_suffix p ".point" then [ p ]
            else [])
          (Array.to_list (Sys.readdir dir))
      in
      let path =
        match points journal_dir with
        | [ p ] -> p
        | ps -> Alcotest.failf "expected one checkpoint, found %d" (List.length ps)
      in
      let stored = read_file path in
      let bad =
        bad_offsets stored (fun damaged ->
            write_file path damaged;
            let r = explore () in
            r.E.evaluated = 1 && r.E.journal_hits = 0
            && metrics r = metrics first)
      in
      Alcotest.(check (list int)) "flipped offsets replayed" [] bad;
      Alcotest.(check string)
        "re-evaluation rewrites the checkpoint" stored (read_file path))

let test_key_and_name_checks () =
  with_dir "lp-store-keys" (fun root ->
      let store : int Store.t =
        Store.create ~name:"test" ~version:1 ~suffix:".e" root
      in
      let path key =
        Filename.concat (Filename.concat root "v1") (Digest.to_hex key ^ ".e")
      in
      let a = Digest.string "a" and b = Digest.string "b" in
      Store.add store a 42;
      Alcotest.(check (option int)) "round trip" (Some 42) (Store.find store a);
      Alcotest.(check (option int)) "absent key" None (Store.find store b);
      let newer : int Store.t =
        Store.create ~name:"test" ~version:2 ~scope:(Digest.string "s") ~suffix:".e" root
      in
      Store.add newer a 7;
      Alcotest.(check (option int))
        "versions do not see each other" (Some 42) (Store.find store a);
      Alcotest.(check int) "scoped entries" 1 (Store.entries newer);
      write_file (path b) (read_file (path a));
      Alcotest.(check (option int))
        "an entry under another key's name is a miss" None (Store.find store b);
      Alcotest.(check bool) "and is deleted" false (Sys.file_exists (path b));
      let other : int Store.t =
        Store.create ~name:"other" ~version:1 ~suffix:".e" root
      in
      Alcotest.(check (option int))
        "another store's entry is a miss" None (Store.find other a);
      Alcotest.(check int) "and is deleted" 0 (Store.entries store))

let () =
  Alcotest.run "store"
    [
      ( "bit rot",
        [
          Alcotest.test_case "memo initial entry" `Quick test_memo_bit_rot;
          Alcotest.test_case "journal point" `Quick test_journal_bit_rot;
        ] );
      ( "checks",
        [ Alcotest.test_case "key and name" `Quick test_key_and_name_checks ] );
    ]
