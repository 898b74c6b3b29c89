"""Failure detection (Section 4).

The detection stack, from cheapest to most powerful:

1. device-reported read errors (latent sector errors);
2. in-page tests: magic, checksum, header and indirection-vector
   plausibility, embedded page id — one inspection
   (:func:`repro.page.slotted.inspect_page`;
   :meth:`repro.page.Page.verify` and
   :meth:`repro.page.SlottedPage.check_plausible` are its two halves);
3. the PageLSN cross-check against the page recovery index — the only
   field a B-tree's fence-key invariants cannot verify (Section 4.2);
   1-3 are one verdict, :meth:`repro.core.recovery_manager.
   RecoveryManager.read`, which every consumer of a device image calls;
4. cross-page B-tree invariants verified on every root-to-leaf pass
   (:mod:`repro.btree.verify`);
5. scrubbing: proactive re-reading and verification of cold pages
   (:mod:`repro.detect.scrubber`), as in the field studies the paper
   cites.
"""

from repro.detect.scrubber import ScrubReport, Scrubber

__all__ = [
    "Scrubber",
    "ScrubReport",
]
