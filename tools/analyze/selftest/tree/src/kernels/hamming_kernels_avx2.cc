// [kernel-tu] fixture: the build scenarios give it flags or drop it.
