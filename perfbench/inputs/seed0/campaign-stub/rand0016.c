#include <stdio.h>

int d = 3;

int main(void) {
    d = d - d;
    {
        int b;
        d = b;
    }
    return 0;
}
