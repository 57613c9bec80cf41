(* Kept so existing [Mf_serve.Json] references (the perfbench harness) still compile. *)
include Mf_util.Json
