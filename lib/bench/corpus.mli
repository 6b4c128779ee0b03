(** The tracked generator corpus ([bench/corpus.json]).

    Each entry pins one [(class, seed)] workload: its structural
    {!Lp_gen.Gen.fingerprint}, its statement count and its ISS trace
    length. {!verify} regenerates every entry from scratch and diffs;
    test/test_gen.ml runs it on the committed manifest, so a generator
    change that silently alters any tracked workload fails tier-1
    (DESIGN.md §14). *)

type entry = {
  spec : string;  (** the [gen:<class>:<seed>] app name *)
  class_name : string;
  seed : int;
  fingerprint : string;  (** {!Lp_gen.Gen.fingerprint} of the program *)
  stmts : int;
  trace_instrs : int;  (** ISS instruction count of a full run *)
}

val default_pairs : (string * int) list
(** The tracked [(class, seed)] pairs, smallest class first. Covers
    every size class; [paper] twice (two seeds) so seed-sensitivity is
    pinned too. *)

val measure : Lp_gen.Gen.spec -> seed:int -> entry
(** Generate, fingerprint, compile and run the workload. *)

val entry_json : entry -> Lp_json.t
val manifest_json : entry list -> Lp_json.t
val of_json : Lp_json.t -> (entry list, string) result

val load : string -> (entry list, string) result
(** Read and parse a manifest file. *)

val save : string -> entry list -> unit

val verify : entry list -> string list
(** Regenerate every entry and return one message per mismatch (bad
    spec name, fingerprint drift, trace-length drift); [[]] = the
    manifest is faithful. *)
