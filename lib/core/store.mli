(** A versioned, checksummed on-disk key/value store: one file per entry.

    The persistent tier of {!Memo} and the checkpoint journal of
    [Lp_explore.Explore] are both values of this type.

    {2 On-disk format}

    Entries live under [root/v<version>/] (or [root/v<version>/<scope>/]
    when a scope is given, named by its hex digest), one file per key,
    named by the key's hex digest plus the store's suffix. Each file is:
    + a magic line [lowpart-<name>/<version> ocaml-<Sys.ocaml_version>];
    + the 16-byte [Digest] of the payload;
    + the payload: a Marshal'd [(key, value)] pair.

    Marshal is not stable across OCaml versions or type layouts, which
    is what the magic line and the versioned directory exist to rule
    out: bumping a store's version orphans (but does not delete) every
    older [v<N>] directory, so a new build never reads entries an older
    one wrote.

    A reader verifies the magic line, then the checksum, and only then
    runs [Marshal] and compares the stored key. Anything unexpected — a
    foreign version, a truncated or bit-rotted file, a key mismatch —
    makes the entry a miss and deletes the file: corruption costs one
    recomputation, never a wrong value or an error. Writers publish
    through a unique temp file renamed into place in the same directory,
    so concurrent writers (domains, or processes sharing the directory)
    only ever publish whole entries, and racing writers of one key
    overwrite each other harmlessly. *)

type 'a t
(** A store whose entries hold values of type ['a]. Two stores may share
    a directory only if their keys are disjoint (e.g. tag-prefixed
    before digesting): a value is always read back at the type of the
    store that reads it. *)

val create :
  name:string -> version:int -> ?scope:string -> suffix:string -> string -> 'a t
(** [create ~name ~version ?scope ~suffix root] opens the store in
    [root/v<version>] (plus the hex of [scope]), creating the directory
    eagerly. [name] and [version] enter the magic line; [suffix] (e.g.
    [".memo"]) names entry files. *)

val root : 'a t -> string
(** The [root] the store was created under. *)

val find : 'a t -> string -> 'a option
(** The entry of a key, or [None] if it is absent or unreadable (see
    above; an unreadable entry is deleted). *)

val add : 'a t -> string -> 'a -> unit
(** Publish an entry atomically, replacing any previous one. I/O errors
    are ignored: the store is a cache, and a lost write is a later
    miss. *)

val entries : 'a t -> int
(** Number of entry files in the store's directory. *)
